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

from repro.gibbs.bounds import (
    BatchedFailureIntervals,
    FailureInterval,
    batched_failure_interval,
    failure_interval,
)
from repro.stats.truncated import TruncatedDistribution
from repro.utils.rng import SeedLike, ensure_rng


def sample_conditional_1d(
    fails: Callable[[np.ndarray], np.ndarray],
    current: float,
    base,
    lo: float,
    hi: float,
    rng: SeedLike = None,
    bisect_iters: int = 5,
    ladder_width: int = 1,
) -> Tuple[float, FailureInterval]:
    """Draw one value from the 1-D Gibbs conditional around ``current``.

    ``base`` is the coordinate's marginal law (StandardNormal for ``x_m`` /
    ``alpha_m``, Chi(M) for ``r``).  Returns the new coordinate value and
    the searched interval (whose ``n_simulations`` the caller accumulates).

    Degenerate guard: if the verified interval has collapsed to (numerical)
    zero width — possible when the failure slice is narrower than the
    bisection resolution — the current value is kept, costing the search
    simulations but moving nothing, which mirrors how a SPICE-driven
    implementation would behave.
    """
    rng = ensure_rng(rng)
    interval = failure_interval(
        fails, current, lo, hi, bisect_iters, ladder_width=ladder_width
    )
    if not interval.lower < interval.upper:
        return float(current), interval
    try:
        trunc = TruncatedDistribution(base, interval.lower, interval.upper)
    except ValueError:
        # Zero probability mass at the resolution of the CDF (deep tail):
        # keep the current value rather than fabricating a draw.
        return float(current), interval
    return float(trunc.sample(rng)), interval


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

    The vectorised counterpart of :func:`sample_conditional_1d`: the
    interval search batches every chain's bisection queries into one
    simulator call per step (see
    :func:`~repro.gibbs.bounds.batched_failure_interval`), and the
    inverse-transform draw is one truncated-CDF evaluation across all
    chains.

    ``rng`` is a sequence of generators, one per chain.  Each chain's
    inverse-transform uniform comes from its own stream, and per-chain
    degenerate guards mirror the scalar path exactly — a chain whose
    verified interval collapsed, or whose interval carries no probability
    mass at CDF resolution, keeps its current value *and consumes no
    random draw*.  A chain's trajectory is therefore a function of its own
    stream and starting point only, independent of how many chains share
    the lockstep batch, and a single-chain batch is bit-for-bit identical
    to the sequential sampler under the same generator.  The first-stage
    chain groups rely on this: any grouping of chains into lockstep calls
    reproduces the same per-chain trajectories bit for bit.
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
            new_values[draw_idx] = np.clip(
                draw, lower[draw_idx], upper[draw_idx]
            )
    return new_values, intervals
