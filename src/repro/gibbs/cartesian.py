"""Gibbs sampling in Cartesian coordinates (Algorithm 1, "G-C").

The chain cycles through the M variables; each step redraws one coordinate
from its conditional ``g_opt(x_m | x_without_m)`` — a standard Normal
truncated to the coordinate's failure slice — and records the updated point
as one Gibbs sample, exactly mirroring Algorithm 1 step 5 ("... to create a
new sampling point").  The simulation cost per sample is the binary search
of Algorithm 3 (5-10 simulations at default depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.circuit import warm as _warm
from repro.gibbs.inverse_transform import (
    sample_conditional_1d,
    sample_conditional_batch,
)
from repro.mc.indicator import FailureSpec
from repro.stats.distributions import StandardNormal
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class GibbsChain:
    """Result of a Gibbs run: samples in Cartesian space plus accounting.

    Attributes
    ----------
    samples:
        ``(K, M)`` Cartesian sample matrix (one row per coordinate update).
    n_simulations:
        Total transistor-level simulations spent, including the optional
        verification of the starting point.
    interval_widths:
        Width of the searched failure interval at each update — a cheap
        mixing diagnostic (a chain stuck near a boundary shows collapsing
        widths, cf. Fig. 14a).
    """

    samples: np.ndarray
    n_simulations: int
    interval_widths: List[float] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def simulations_per_sample(self) -> float:
        return self.n_simulations / max(self.n_samples, 1)


@dataclass
class MultiChainGibbs:
    """Result of a lockstep multi-chain Gibbs run.

    Attributes
    ----------
    samples:
        ``(C, K, M)`` Cartesian sample tensor: ``C`` chains advanced
        synchronously, each contributing ``K`` samples (one per coordinate
        update, as in the sequential sampler).
    n_simulations:
        Total transistor-level simulations across all chains — batching
        changes how simulations are *issued*, never how many are charged.
    per_chain_simulations:
        ``(C,)`` breakdown of ``n_simulations`` by chain; each entry equals
        what the same chain would have cost run alone.
    interval_widths:
        ``(C, K)`` width of each chain's searched failure interval at every
        update (the Fig. 14a mixing diagnostic, per chain).
    """

    samples: np.ndarray
    n_simulations: int
    per_chain_simulations: np.ndarray
    interval_widths: np.ndarray

    @property
    def n_chains(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples_per_chain(self) -> int:
        return self.samples.shape[1]

    @property
    def n_samples(self) -> int:
        """Total pooled sample count ``C * K``."""
        return self.samples.shape[0] * self.samples.shape[1]

    @property
    def simulations_per_sample(self) -> float:
        return self.n_simulations / max(self.n_samples, 1)

    @property
    def pooled_samples(self) -> np.ndarray:
        """All chains' samples stacked into one ``(C * K, M)`` matrix.

        This is the pool Algorithm 5 fits ``g_nor`` to in multi-chain mode:
        chains started from different failure-region points cover disjoint
        parts of a non-convex region, so the pooled fit sees all of them.
        """
        return self.samples.reshape(-1, self.samples.shape[2])

    def chain(self, c: int) -> GibbsChain:
        """One chain's trajectory as a standalone :class:`GibbsChain`."""
        return GibbsChain(
            samples=self.samples[c],
            n_simulations=int(self.per_chain_simulations[c]),
            interval_widths=list(self.interval_widths[c]),
        )


class CartesianGibbs:
    """Algorithm 1: the Cartesian-coordinate Gibbs sampler.

    Every run warm-starts each chain's Newton solves from that chain's
    previous converged solution (:mod:`repro.circuit.warm`): the interval
    search re-simulates nearby points of one slice round after round.

    Parameters
    ----------
    metric, spec:
        The black-box simulation and its failure criterion.
    dimension:
        Number of variation variables M (defaults to ``metric.dimension``).
    zeta:
        Coordinate clamp: each ``x_m`` is confined to ``[-zeta, +zeta]``
        (Section IV-A suggests 8-10; beyond it the Normal mass is
        negligible).
    bisect_iters:
        Interval-search depth per interval endpoint.
    ladder_width:
        Points evaluated per active bracket side per search round (see
        :func:`repro.gibbs.bounds.batched_failure_interval`).  ``1`` is
        classic bisection (bit-identical default); ``k > 1`` trades extra
        simulations for fewer sequential metric calls per update.
    """

    def __init__(
        self,
        metric: Callable,
        spec: FailureSpec,
        dimension: Optional[int] = None,
        zeta: float = 8.0,
        bisect_iters: int = 5,
        ladder_width: int = 1,
    ):
        if zeta <= 0:
            raise ValueError(f"zeta must be positive, got {zeta}")
        if ladder_width < 1:
            raise ValueError(f"ladder_width must be >= 1, got {ladder_width}")
        self.metric = metric
        self.spec = spec
        self.dimension = int(dimension or getattr(metric, "dimension"))
        self.zeta = float(zeta)
        self.bisect_iters = int(bisect_iters)
        self.ladder_width = int(ladder_width)
        self._normal = StandardNormal()

    def _coordinate_indicator(self, x: np.ndarray, m: int):
        """Vectorised failure indicator along coordinate ``m`` through ``x``."""

        def fails(values: np.ndarray) -> np.ndarray:
            values = np.atleast_1d(values)
            points = np.tile(x, (values.size, 1))
            points[:, m] = values
            # Sequential sampler: every row belongs to the one chain.
            _warm.set_lanes(np.zeros(values.size, dtype=np.intp))
            return self.spec.indicator(self.metric(points))

        return fails

    def _coordinate_indicator_lockstep(self, states: np.ndarray, m: int):
        """Batched indicator along coordinate ``m`` of per-chain states.

        ``fails(chain_idx, values)`` evaluates chain ``chain_idx[i]``'s
        slice at ``values[i]`` — all rows in one metric batch.
        """

        def fails(chain_idx: np.ndarray, values: np.ndarray) -> np.ndarray:
            points = states[chain_idx]
            points[:, m] = values
            _warm.set_lanes(chain_idx)
            return self.spec.indicator(self.metric(points))

        return fails

    def run(
        self,
        x0: np.ndarray,
        n_samples: int,
        rng: SeedLike = None,
        verify_start: bool = True,
    ) -> GibbsChain:
        """Generate ``n_samples`` Gibbs samples starting from ``x0``.

        ``x0`` must lie in the failure region (Algorithm 4 provides it);
        with ``verify_start`` one simulation confirms this and a
        ``ValueError`` is raised otherwise — a cheap guard against a bad
        surrogate optimum silently poisoning the whole chain.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        rng = ensure_rng(rng)
        x = np.asarray(x0, dtype=float).reshape(-1).copy()
        if x.size != self.dimension:
            raise ValueError(
                f"starting point has dimension {x.size}, expected {self.dimension}"
            )
        n_sims = 0
        samples = np.empty((n_samples, self.dimension))
        widths: List[float] = []
        with _warm.use_carrier(_warm.SolverStateCarrier()):
            if verify_start:
                _warm.set_lanes(np.zeros(1, dtype=np.intp))
                failing = bool(
                    self.spec.indicator(self.metric(x[np.newaxis, :]))[0]
                )
                n_sims += 1
                if not failing:
                    raise ValueError("starting point is not in the failure region")

            k = 0
            m = 0
            while k < n_samples:
                fails = self._coordinate_indicator(x, m)
                new_value, interval = sample_conditional_1d(
                    fails,
                    current=float(x[m]),
                    base=self._normal,
                    lo=-self.zeta,
                    hi=self.zeta,
                    rng=rng,
                    bisect_iters=self.bisect_iters,
                    ladder_width=self.ladder_width,
                )
                n_sims += interval.n_simulations
                widths.append(interval.width)
                x[m] = new_value
                samples[k] = x
                k += 1
                m = (m + 1) % self.dimension
        return GibbsChain(samples=samples, n_simulations=n_sims, interval_widths=widths)

    def run_lockstep(
        self,
        x0: np.ndarray,
        n_samples: int,
        chain_rngs: Sequence[SeedLike],
        verify_start: bool = True,
    ) -> MultiChainGibbs:
        """Advance ``C`` chains synchronously for ``n_samples`` updates each.

        ``x0`` is a ``(C, M)`` matrix of failure-region starting points (a
        single ``(M,)`` point is promoted to one chain).  Every bisection
        step of Algorithm 3 issues one batched metric call covering all
        chains' pending midpoints — up to ``2 C`` points per call — and the
        inverse-transform draw is one vectorised truncated-CDF evaluation,
        so the per-sample wall-clock cost shrinks roughly with ``C`` on a
        vectorised simulator while the simulation *count* stays exactly the
        sum of ``C`` sequential chains.

        ``chain_rngs`` gives every chain its own generator (one seed-like
        per chain).  Chain trajectories depend only on their own stream and
        starting point — not on which other chains share the batch — so
        splitting the same chains (with the same streams) across several
        lockstep calls reproduces identical trajectories.  This is the
        contract the first-stage chain groups build on.  With ``C = 1``
        and ``chain_rngs=[rng]`` the generated chain is bit-for-bit
        identical to :meth:`run` under the same ``rng``.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        states = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
        if states.ndim != 2 or states.shape[1] != self.dimension:
            raise ValueError(
                f"starting points have shape {np.shape(x0)}, expected "
                f"(n_chains, {self.dimension})"
            )
        n_chains = states.shape[0]
        if len(chain_rngs) != n_chains:
            raise ValueError(
                f"chain_rngs has {len(chain_rngs)} generators for "
                f"{n_chains} chains"
            )
        draw_rng = [ensure_rng(r) for r in chain_rngs]
        per_chain = np.zeros(n_chains, dtype=int)
        samples = np.empty((n_chains, n_samples, self.dimension))
        widths = np.empty((n_chains, n_samples))
        with _warm.use_carrier(_warm.SolverStateCarrier()):
            if verify_start:
                _warm.set_lanes(np.arange(n_chains, dtype=np.intp))
                failing = np.asarray(
                    self.spec.indicator(self.metric(states)), dtype=bool
                )
                per_chain += 1
                if not failing.all():
                    bad = np.flatnonzero(~failing)
                    raise ValueError(
                        f"starting point(s) {bad.tolist()} not in the failure region"
                    )

            m = 0
            for k in range(n_samples):
                fails = self._coordinate_indicator_lockstep(states, m)
                new_values, intervals = sample_conditional_batch(
                    fails,
                    current=states[:, m],
                    base=self._normal,
                    lo=-self.zeta,
                    hi=self.zeta,
                    rng=draw_rng,
                    bisect_iters=self.bisect_iters,
                    ladder_width=self.ladder_width,
                )
                per_chain += intervals.per_chain_simulations
                widths[:, k] = intervals.widths
                states[:, m] = new_values
                samples[:, k, :] = states
                m = (m + 1) % self.dimension
        return MultiChainGibbs(
            samples=samples,
            n_simulations=int(per_chain.sum()),
            per_chain_simulations=per_chain,
            interval_widths=widths,
        )
