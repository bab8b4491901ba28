"""1-D inverse-transform conditional sampling (Algorithm 3).

Combines the failure-interval binary search with truncated-law
inverse-transform sampling: the conditional PDFs of Eqs. (22), (24), (25)
are all "base law restricted to the failure slice", so one draw is

1. binary-search ``[u, v]`` (transistor-level simulations — the entire
   cost),
2. draw ``s ~ U[F(u), F(v)]`` and return ``F^{-1}(s)`` (free).
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from repro.gibbs.bounds import BatchedFailureIntervals, batched_failure_interval

# Unused here: perfbench's span wrappers look ``failure_interval`` up in
# this module by name.
from repro.gibbs.bounds import failure_interval  # noqa: F401
from repro.utils.rng import SeedLike, ensure_rng


def sample_conditional_batch(
    fails: Callable[[np.ndarray, np.ndarray], np.ndarray],
    current: np.ndarray,
    base,
    lo: float,
    hi: float,
    rng: Sequence[SeedLike],
    bisect_iters: int = 5,
    ladder_width: int = 1,
) -> Tuple[np.ndarray, BatchedFailureIntervals]:
    """Draw one value per lockstep chain from its 1-D Gibbs conditional.

    ``base`` is the coordinate's marginal law (StandardNormal for ``x_m`` /
    ``alpha_m``, Chi(M) for ``r``).  The interval search batches every
    chain's bisection queries into one simulator call per step (see
    :func:`~repro.gibbs.bounds.batched_failure_interval`); each chain's
    interval is then clipped to the base law's support and sampled by
    inverse transform.  Returns the new values and the searched intervals
    (whose per-chain simulations the caller accumulates).

    ``rng`` is a sequence of generators, one per chain.  Each chain's
    inverse-transform uniform comes from its own stream.  Degenerate
    guard: a chain whose verified interval collapsed (a failure slice
    narrower than the bisection resolution), or whose interval carries
    no probability mass at CDF resolution (deep tail), keeps its current
    value *and consumes no random draw* — it pays the search simulations
    but moves nothing, as a SPICE-driven implementation would.  A chain's
    trajectory is therefore a function of its own stream and starting
    point only, independent of how many chains share the lockstep batch;
    the first-stage chain groups rely on this, since any grouping of
    chains into lockstep calls reproduces the same per-chain trajectories
    bit for bit.

    The draw keeps its operation order (one ``uniform(F(u), F(v))`` call
    per chain, then ``ppf`` and a clip to ``[u, v]``): that order keeps
    every recorded chain bit-identical.
    """
    current = np.asarray(current, dtype=float).reshape(-1)
    if len(rng) != current.size:
        raise ValueError(
            f"got {len(rng)} per-chain generators for {current.size} chains"
        )
    per_chain_rngs = [ensure_rng(r) for r in rng]
    intervals = batched_failure_interval(
        fails, current, lo, hi, bisect_iters, ladder_width=ladder_width
    )

    new_values = current.copy()
    lo_support, hi_support = base.support
    lower = np.maximum(intervals.lower, lo_support)
    upper = np.minimum(intervals.upper, hi_support)
    valid = lower < upper
    if valid.any():
        cdf_lo = np.asarray(base.cdf(lower[valid]), dtype=float)
        cdf_hi = np.asarray(base.cdf(upper[valid]), dtype=float)
        mass = cdf_hi - cdf_lo
        positive = mass > 0.0
        if positive.any():
            draw_idx = np.flatnonzero(valid)[positive]
            u = np.array([
                per_chain_rngs[c].uniform(a, b)
                for c, a, b in zip(
                    draw_idx, cdf_lo[positive], cdf_hi[positive]
                )
            ])
            draw = np.asarray(base.ppf(u), dtype=float)
            # Guard against ppf round-off at extreme tails pushing a draw
            # a ulp outside the interval.
            new_values[draw_idx] = np.clip(
                draw, lower[draw_idx], upper[draw_idx]
            )
    return new_values, intervals
