"""Interval search for the 1-D failure interval (Algorithm 3, step 2).

Given a point known to fail and a coordinate to vary, the Gibbs conditional
is the base law truncated to the 1-D slice of the failure region through
that point.  Under the paper's working assumption — a single continuous
failure region, bounded by clamping the coordinate to ``[-zeta, +zeta]``
(Section IV-A) — the slice is one interval ``[u, v]`` containing the
current value, and an interval search finds its boundaries with a handful
of simulations.

Implementation details that matter for cost accounting:

* the two interval endpoints are searched *simultaneously*, so each search
  round evaluates both sides' candidate points in one batched metric call
  (2 simulations per round at the default ``ladder_width=1``, matching the
  paper's 5-10 simulations per Gibbs sample at the default depth);
* ``ladder_width=k`` widens each round from one midpoint to a ``k``-point
  grid per active side, shrinking the bracket ``(k+1)×`` per round; the
  same boundary resolution then needs only
  ``ceil(bisect_iters / log2(k + 1))`` *sequential* rounds.  More
  simulations total, fewer dependent metric calls — a wall-clock/sims
  tradeoff that pays off on a vectorised simulator whose per-point cost is
  strongly sublinear in batch size;
* the returned boundaries are the innermost points *verified to fail*, so
  the truncated conditional never puts mass on territory the search has
  not confirmed — the chain provably stays inside the sampled region;
* every row handed to ``fails`` carries the side of the bracket it probes
  (:func:`repro.circuit.warm.set_sides`), so a chain's Newton warm start
  seeds each probe from the same side's previous probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.circuit import warm as _warm
from repro.telemetry import context as _telemetry


@dataclass(frozen=True)
class FailureInterval:
    """A verified-failing 1-D interval and the simulations it cost."""

    lower: float
    upper: float
    n_simulations: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class BatchedFailureIntervals:
    """Verified-failing 1-D intervals for ``C`` lockstep chains.

    The arrays are aligned by chain index; ``n_simulations`` is the grand
    total across chains, ``per_chain_simulations`` its per-chain breakdown
    (each entry equals what :func:`failure_interval` would have spent on
    that chain alone — batching changes wall-clock, never the paper's cost
    metric).
    """

    lower: np.ndarray
    upper: np.ndarray
    n_simulations: int
    per_chain_simulations: np.ndarray

    @property
    def n_chains(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower


def ladder_rounds(bisect_iters: int, ladder_width: int) -> int:
    """Sequential search rounds needed to match ``bisect_iters`` resolution.

    A ``k``-point ladder shrinks the bracket ``(k+1)×`` per round, so
    matching the ``2**bisect_iters`` shrink of plain bisection takes
    ``ceil(bisect_iters / log2(k + 1))`` rounds.  ``ladder_width=1`` is
    special-cased to exactly ``bisect_iters`` so the default path cannot
    pick up a float round-off surprise.
    """
    if ladder_width < 1:
        raise ValueError(f"ladder_width must be >= 1, got {ladder_width}")
    if ladder_width == 1:
        return bisect_iters
    return math.ceil(bisect_iters / math.log2(ladder_width + 1))


def _probe(fails, chain_idx, values, sides) -> np.ndarray:
    """``fails(chain_idx, values)`` with each row tagged by its bracket side
    (0 left, 1 right) for the Newton warm start, as a boolean array."""
    _warm.set_sides(sides)
    try:
        return np.asarray(fails(chain_idx, values), dtype=bool)
    finally:
        _warm.set_sides(None)


def failure_interval(
    fails: Callable[[np.ndarray], np.ndarray],
    current: float,
    lo: float,
    hi: float,
    bisect_iters: int = 5,
    ladder_width: int = 1,
) -> FailureInterval:
    """Locate the failure interval around ``current`` within ``[lo, hi]``.

    A thin adapter over :func:`batched_failure_interval` with a single
    chain — the bracket-update logic lives in one place.

    Parameters
    ----------
    fails:
        Vectorised indicator along the coordinate: maps an array of
        coordinate values to a boolean failure array.  Each evaluated value
        is one transistor-level simulation.
    current:
        A coordinate value assumed to fail (the chain's current position).
    lo, hi:
        Clamp bounds (the paper's ``[-zeta, +zeta]``).
    bisect_iters:
        Search depth per endpoint; the interval boundary is located to
        ``(hi - lo) / 2**bisect_iters`` resolution (or finer — see
        ``ladder_width``).
    ladder_width:
        Points evaluated per active side per round.  The default ``1`` is
        classic bisection; ``k > 1`` trades extra simulations for
        ``ceil(bisect_iters / log2(k + 1))`` sequential rounds at the same
        (or better) resolution.
    """
    batched = batched_failure_interval(
        lambda chain_idx, values: fails(values),
        np.array([current], dtype=float),
        lo,
        hi,
        bisect_iters=bisect_iters,
        ladder_width=ladder_width,
    )
    return FailureInterval(
        lower=float(batched.lower[0]),
        upper=float(batched.upper[0]),
        n_simulations=int(batched.n_simulations),
    )


def batched_failure_interval(
    fails: Callable[[np.ndarray, np.ndarray], np.ndarray],
    current: np.ndarray,
    lo: float,
    hi: float,
    bisect_iters: int = 5,
    ladder_width: int = 1,
) -> BatchedFailureIntervals:
    """Locate the failure intervals of ``C`` lockstep chains simultaneously.

    The per-chain bracket state is advanced with masked NumPy updates, so
    each search round issues **one** call to ``fails`` covering every
    chain's pending ladder points (at most ``2 C k`` points) instead of up
    to ``2 C k`` scalar calls — the batching that makes the lockstep
    multi-chain engine fast on a vectorised simulator.

    Parameters
    ----------
    fails:
        Batched indicator ``fails(chain_idx, values) -> bool array``:
        evaluates chain ``chain_idx[i]``'s 1-D slice at coordinate value
        ``values[i]`` for all ``i`` in one simulator batch.  Each evaluated
        value is one transistor-level simulation, exactly as for a chain
        searched alone.
    current:
        ``(C,)`` coordinate values, each assumed to fail on its own chain.
    lo, hi:
        Shared clamp bounds (the paper's ``[-zeta, +zeta]``).
    bisect_iters:
        Search depth per endpoint, as in :func:`failure_interval`.
    ladder_width:
        Points per active side per round (``k``).  Each round places a
        uniform ``k``-point grid across the open bracket and keeps the
        innermost verified-failing point, shrinking the bracket ``(k+1)×``;
        ``ladder_rounds(bisect_iters, k)`` rounds reach at least the plain
        bisection resolution.  The default ``1`` reproduces classic
        bisection bit-for-bit, per-chain sims accounting included.

    With ``ladder_width=1`` the returned intervals and per-chain simulation
    counts are **identical** to searching each chain alone (the property
    test in ``tests/test_gibbs_multichain.py`` pins this): a side whose
    clamp endpoint already fails is excluded from every subsequent batch,
    so no chain is ever charged for a query its own search would not have
    made.
    """
    k = int(ladder_width)
    n_rounds = ladder_rounds(bisect_iters, k)
    current = np.asarray(current, dtype=float).reshape(-1)
    n_chains = current.size
    if n_chains == 0:
        raise ValueError("need at least one chain")
    in_bounds = (current >= lo) & (current <= hi)
    if not in_bounds.all():
        bad = current[~in_bounds][0]
        raise ValueError(
            f"current value {bad} outside clamp bounds [{lo}, {hi}]"
        )

    # Endpoint check: (lo, hi) per chain, one batch of 2C points.
    chain_idx = np.repeat(np.arange(n_chains), 2)
    endpoint_fail = _probe(
        fails, chain_idx, np.tile(np.array([lo, hi], dtype=float), n_chains),
        np.tile(np.arange(2), n_chains),
    ).reshape(n_chains, 2)
    per_chain = np.full(n_chains, 2, dtype=int)

    # Bracket state per side: (pass_end, fail_end).  A side whose clamp
    # endpoint already fails needs no search at all.
    left_active = ~endpoint_fail[:, 0]
    right_active = ~endpoint_fail[:, 1]
    left_pass = np.full(n_chains, float(lo))
    left_fail = current.copy()
    right_fail = current.copy()
    right_pass = np.full(n_chains, float(hi))

    rounds_run = 0
    for _ in range(n_rounds):
        if not (left_active.any() or right_active.any()):
            break
        rounds_run += 1
        l_idx = np.flatnonzero(left_active)
        r_idx = np.flatnonzero(right_active)
        if k == 1:
            # Keep this midpoint formula: 0.5*(a+b) and a + (b-a)/2 differ
            # in the last ulp for some brackets, and this order keeps every
            # recorded chain bit-identical.
            l_pts = (0.5 * (left_pass[l_idx] + left_fail[l_idx]))[:, None]
            r_pts = (0.5 * (right_fail[r_idx] + right_pass[r_idx]))[:, None]
        else:
            frac = np.arange(1, k + 1, dtype=float) / (k + 1)
            l_pts = (
                left_pass[l_idx, None]
                + (left_fail[l_idx] - left_pass[l_idx])[:, None] * frac
            )
            r_pts = (
                right_fail[r_idx, None]
                + (right_pass[r_idx] - right_fail[r_idx])[:, None] * frac
            )
        outcome = _probe(
            fails,
            np.concatenate([np.repeat(l_idx, k), np.repeat(r_idx, k)]),
            np.concatenate([l_pts.ravel(), r_pts.ravel()]),
            np.repeat(np.arange(2), (l_idx.size * k, r_idx.size * k)),
        )
        per_chain[l_idx] += k
        per_chain[r_idx] += k
        out_l = outcome[: l_idx.size * k].reshape(l_idx.size, k)
        out_r = outcome[l_idx.size * k :].reshape(r_idx.size, k)

        if l_idx.size:
            # Left ladder runs pass-end -> fail-end: the first failing grid
            # point is the new fail end, its predecessor (or the old pass
            # end) the new pass end; an all-pass ladder advances the pass
            # end to the last grid point.
            rows = np.arange(l_idx.size)
            any_fail = out_l.any(axis=1)
            j_star = np.argmax(out_l, axis=1)
            new_fail = np.where(any_fail, l_pts[rows, j_star], left_fail[l_idx])
            inner_pass = np.where(
                j_star > 0,
                l_pts[rows, np.maximum(j_star - 1, 0)],
                left_pass[l_idx],
            )
            left_fail[l_idx] = new_fail
            left_pass[l_idx] = np.where(any_fail, inner_pass, l_pts[:, -1])
        if r_idx.size:
            # Right ladder mirrored: fail-end -> pass-end, first *passing*
            # grid point bounds the pass end.
            rows = np.arange(r_idx.size)
            pass_r = ~out_r
            any_pass = pass_r.any(axis=1)
            i_star = np.argmax(pass_r, axis=1)
            new_pass = np.where(any_pass, r_pts[rows, i_star], right_pass[r_idx])
            inner_fail = np.where(
                i_star > 0,
                r_pts[rows, np.maximum(i_star - 1, 0)],
                right_fail[r_idx],
            )
            right_pass[r_idx] = new_pass
            right_fail[r_idx] = np.where(any_pass, inner_fail, r_pts[:, -1])

    lower = np.where(left_active, left_fail, lo)
    upper = np.where(right_active, right_fail, hi)
    recorder = _telemetry.get_active()
    if recorder is not None:
        recorder.count("bisect.searches", n_chains)
        recorder.count("bisect.sims", int(per_chain.sum()))
        recorder.count("bisect.rounds", rounds_run)
    return BatchedFailureIntervals(
        lower=lower,
        upper=upper,
        n_simulations=int(per_chain.sum()),
        per_chain_simulations=per_chain,
    )
