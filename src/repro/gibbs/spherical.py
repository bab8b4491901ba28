"""Gibbs sampling in the redundant spherical coordinates (Algorithm 2, "G-S").

The chain state is ``(r, alpha_1 .. alpha_M)``: each sweep first redraws the
radius from its conditional (a Chi(M) law truncated to the radial failure
slice along the current orientation), then each orientation component from
a truncated standard Normal.  Because changing one ``alpha_m`` moves the
point along a *contour of equal probability density* (all coordinates vary
simultaneously on an arc, Fig. 3), the sampler can traverse wide,
non-convex failure regions that trap the Cartesian chain near a boundary
(the Fig. 14 comparison).

Samples are recorded in Cartesian space after every coordinate update —
the two-stage flow always fits its Normal proposal in Cartesian
coordinates (Algorithm 5 step 3).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.circuit import warm as _warm
from repro.gibbs.cartesian import GibbsChain, MultiChainGibbs
from repro.gibbs.inverse_transform import (
    sample_conditional_1d,
    sample_conditional_batch,
)
from repro.mc.indicator import FailureSpec
from repro.stats.distributions import ChiDistribution, StandardNormal
from repro.utils.rng import SeedLike, ensure_rng


class SphericalGibbs:
    """Algorithm 2: the spherical-coordinate Gibbs sampler.

    Like :class:`~repro.gibbs.cartesian.CartesianGibbs`, every run
    warm-starts each chain's Newton solves from that chain's previous
    converged solution (:mod:`repro.circuit.warm`).

    Parameters
    ----------
    metric, spec:
        Black-box simulation and failure criterion.
    dimension:
        Number of variation variables M.  The chain itself has M + 1
        coordinates (r and alpha).
    zeta:
        Clamp for orientation components: ``alpha_m in [-zeta, +zeta]``.
    r_max:
        Clamp for the radius; defaults to ``sqrt(M) + 10``, far beyond any
        Chi(M) mass.
    bisect_iters:
        Binary-search depth per interval endpoint for the radius.
    alpha_bisect_iters:
        Binary-search depth for orientation components; defaults to
        ``bisect_iters + 3``.  Orientation failure slices are angular cone
        sections, typically much narrower than radial slices (which extend
        to the clamp for any outward-unbounded failure region), so they
        need finer resolution before the bisection midpoints start landing
        inside them.
    ladder_width:
        Points evaluated per active bracket side per search round (see
        :func:`repro.gibbs.bounds.batched_failure_interval`); applies to
        both the radial and the orientation searches.  ``1`` is classic
        bisection (bit-identical default).
    normalize_each_sweep:
        Renormalise ``||alpha|| = sqrt(M)`` at the start of every sweep.
        The (r, alpha) parameterisation is scale-redundant — Eq. (11) makes
        x invariant under ``alpha -> c * alpha`` — but the *conditional
        slices* are not: their width scales with ``||alpha||``.  Starting
        from the maximum-likelihood initialisation of Eq. (32)
        (``||alpha|| = epsilon ~ 1e-2``) the slices would be microscopically
        thin and invisible to any realistic binary search, freezing the
        orientation.  Pinning the scale at sqrt(M) — the natural magnitude
        of alpha ~ N(0, I_M) — keeps slices at the resolvable angular scale
        while leaving the generated x-samples untouched.  This is an
        implementation refinement the paper does not spell out; disabling
        it reproduces the frozen-orientation pathology (see
        tests/test_gibbs_spherical.py).
    """

    def __init__(
        self,
        metric: Callable,
        spec: FailureSpec,
        dimension: Optional[int] = None,
        zeta: float = 8.0,
        r_max: Optional[float] = None,
        bisect_iters: int = 5,
        alpha_bisect_iters: Optional[int] = None,
        normalize_each_sweep: bool = True,
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
        self.r_max = float(r_max) if r_max is not None else float(
            np.sqrt(self.dimension) + 10.0
        )
        self.bisect_iters = int(bisect_iters)
        self.alpha_bisect_iters = (
            int(alpha_bisect_iters)
            if alpha_bisect_iters is not None
            else self.bisect_iters + 3
        )
        self.normalize_each_sweep = bool(normalize_each_sweep)
        self.ladder_width = int(ladder_width)
        self._normal = StandardNormal()
        self._chi = ChiDistribution(self.dimension)

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _unit(alpha: np.ndarray) -> np.ndarray:
        norm = float(np.linalg.norm(alpha))
        if norm < 1e-300:
            raise ValueError("orientation vector collapsed to zero length")
        return alpha / norm

    def _radius_indicator(self, alpha: np.ndarray):
        unit = self._unit(alpha)

        def fails(values: np.ndarray) -> np.ndarray:
            values = np.atleast_1d(values)
            points = values[:, np.newaxis] * unit[np.newaxis, :]
            _warm.set_lanes(np.zeros(values.size, dtype=np.intp))
            return self.spec.indicator(self.metric(points))

        return fails

    @staticmethod
    def _unit_rows(alpha: np.ndarray) -> np.ndarray:
        # Row-wise 1-D norms rather than a single axis=1 reduction: the two
        # differ in the last ulp (BLAS dot vs ufunc reduce), and lockstep
        # runs promise bit-identical trajectories to the sequential path.
        norms = np.array([float(np.linalg.norm(row)) for row in alpha])
        if np.any(norms < 1e-300):
            raise ValueError("orientation vector collapsed to zero length")
        return alpha / norms[:, np.newaxis]

    def _radius_indicator_lockstep(self, units: np.ndarray):
        """Batched radial indicator: chain ``c`` probes along ``units[c]``."""

        def fails(chain_idx: np.ndarray, values: np.ndarray) -> np.ndarray:
            points = values[:, np.newaxis] * units[chain_idx]
            _warm.set_lanes(chain_idx)
            return self.spec.indicator(self.metric(points))

        return fails

    def _orientation_indicator_lockstep(
        self, r: np.ndarray, alpha: np.ndarray, m: int
    ):
        """Batched orientation indicator along component ``m`` per chain."""

        def fails(chain_idx: np.ndarray, values: np.ndarray) -> np.ndarray:
            candidates = alpha[chain_idx]
            candidates[:, m] = values
            norms = np.linalg.norm(candidates, axis=1)
            # Mirrors the scalar indicator: a zero-length candidate has no
            # direction and cannot be a failure sample, and is never sent
            # to the simulator.
            safe = norms > 1e-300
            out = np.zeros(values.size, dtype=bool)
            if safe.any():
                # Only the safe rows reach the metric, so the lane tag
                # must cover exactly those rows.
                _warm.set_lanes(chain_idx[safe])
                # Same operation order as the scalar indicator so a C=1
                # lockstep run stays bit-identical to the sequential path.
                points = (
                    r[chain_idx][safe, np.newaxis] * candidates[safe]
                    / norms[safe, np.newaxis]
                )
                out[safe] = self.spec.indicator(self.metric(points))
            return out

        return fails

    def _orientation_indicator(self, r: float, alpha: np.ndarray, m: int):
        def fails(values: np.ndarray) -> np.ndarray:
            values = np.atleast_1d(values)
            candidates = np.tile(alpha, (values.size, 1))
            candidates[:, m] = values
            norms = np.linalg.norm(candidates, axis=1)
            # A candidate alpha of zero length has no direction; it cannot
            # be a failure sample (measure-zero event, deep inside the
            # passing bulk for any rare-failure problem anyway).
            safe = norms > 1e-300
            points = np.zeros_like(candidates)
            points[safe] = r * candidates[safe] / norms[safe, np.newaxis]
            out = np.zeros(values.size, dtype=bool)
            _warm.set_lanes(np.zeros(int(safe.sum()), dtype=np.intp))
            out[safe] = self.spec.indicator(self.metric(points[safe]))
            return out

        return fails

    # ---------------------------------------------------------------- run
    def run(
        self,
        r0: float,
        alpha0: np.ndarray,
        n_samples: int,
        rng: SeedLike = None,
        verify_start: bool = True,
    ) -> GibbsChain:
        """Generate ``n_samples`` Gibbs samples from the (r, alpha) chain.

        ``(r0, alpha0)`` come from Algorithm 4 via
        :func:`repro.gibbs.coordinates.initial_spherical_coordinates`.
        Samples are returned in Cartesian coordinates.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        rng = ensure_rng(rng)
        alpha = np.asarray(alpha0, dtype=float).reshape(-1).copy()
        if alpha.size != self.dimension:
            raise ValueError(
                f"alpha0 has dimension {alpha.size}, expected {self.dimension}"
            )
        r = float(r0)
        if not 0.0 < r <= self.r_max:
            raise ValueError(f"r0 must be in (0, {self.r_max}], got {r}")

        n_sims = 0
        scale = float(np.sqrt(self.dimension))
        samples = np.empty((n_samples, self.dimension))
        widths: List[float] = []
        with _warm.use_carrier(_warm.SolverStateCarrier()):
            if verify_start:
                x_start = r * self._unit(alpha)
                _warm.set_lanes(np.zeros(1, dtype=np.intp))
                failing = bool(
                    self.spec.indicator(self.metric(x_start[np.newaxis, :]))[0]
                )
                n_sims += 1
                if not failing:
                    raise ValueError("starting point is not in the failure region")

            k = 0
            coord = 0  # 0 = radius, 1..M = orientation components
            while k < n_samples:
                if coord == 0:
                    if self.normalize_each_sweep:
                        # Scale redundancy of Eq. (11): x is unchanged, but
                        # the orientation slices regain search-visible width.
                        alpha = scale * self._unit(alpha)
                    fails = self._radius_indicator(alpha)
                    new_r, interval = sample_conditional_1d(
                        fails, current=r, base=self._chi,
                        lo=1e-9, hi=self.r_max, rng=rng,
                        bisect_iters=self.bisect_iters,
                        ladder_width=self.ladder_width,
                    )
                    r = new_r
                else:
                    m = coord - 1
                    current = float(np.clip(alpha[m], -self.zeta, self.zeta))
                    fails = self._orientation_indicator(r, alpha, m)
                    new_alpha_m, interval = sample_conditional_1d(
                        fails, current=current, base=self._normal,
                        lo=-self.zeta, hi=self.zeta, rng=rng,
                        bisect_iters=self.alpha_bisect_iters,
                        ladder_width=self.ladder_width,
                    )
                    alpha[m] = new_alpha_m
                n_sims += interval.n_simulations
                widths.append(interval.width)
                samples[k] = r * self._unit(alpha)
                k += 1
                coord = (coord + 1) % (self.dimension + 1)
        return GibbsChain(samples=samples, n_simulations=n_sims, interval_widths=widths)

    def run_lockstep(
        self,
        r0: np.ndarray,
        alpha0: np.ndarray,
        n_samples: int,
        chain_rngs: Sequence[SeedLike],
        verify_start: bool = True,
    ) -> MultiChainGibbs:
        """Advance ``C`` spherical chains synchronously (lockstep G-S).

        ``alpha0`` is ``(C, M)`` and ``r0`` is ``(C,)`` (scalars / single
        points are promoted to one chain).  All chains move through the
        same coordinate schedule — radius, then each orientation component
        — so every bisection step batches into one metric call across
        chains, exactly as in :meth:`CartesianGibbs.run_lockstep`.

        ``chain_rngs`` assigns every chain its own generator (see
        :meth:`CartesianGibbs.run_lockstep`): trajectories do not depend
        on how chains are grouped into lockstep calls, which is what lets
        the first stage split chains across processes without changing
        any number.  With ``C = 1`` and ``chain_rngs=[rng]`` the chain is
        bit-for-bit identical to :meth:`run` under the same ``rng``.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        alpha = np.atleast_2d(np.asarray(alpha0, dtype=float)).copy()
        if alpha.ndim != 2 or alpha.shape[1] != self.dimension:
            raise ValueError(
                f"alpha0 has shape {np.shape(alpha0)}, expected "
                f"(n_chains, {self.dimension})"
            )
        n_chains = alpha.shape[0]
        if len(chain_rngs) != n_chains:
            raise ValueError(
                f"chain_rngs has {len(chain_rngs)} generators for "
                f"{n_chains} chains"
            )
        draw_rng = [ensure_rng(r) for r in chain_rngs]
        r = np.asarray(r0, dtype=float).reshape(-1)
        if r.size not in (1, n_chains):
            raise ValueError(
                f"r0 has size {r.size}, expected 1 or {n_chains}"
            )
        r = np.broadcast_to(r, (n_chains,)).astype(float).copy()
        if np.any((r <= 0.0) | (r > self.r_max)):
            raise ValueError(
                f"r0 must be in (0, {self.r_max}], got {r.tolist()}"
            )

        per_chain = np.zeros(n_chains, dtype=int)
        scale = float(np.sqrt(self.dimension))
        samples = np.empty((n_chains, n_samples, self.dimension))
        widths = np.empty((n_chains, n_samples))
        with _warm.use_carrier(_warm.SolverStateCarrier()):
            if verify_start:
                x_start = r[:, np.newaxis] * self._unit_rows(alpha)
                _warm.set_lanes(np.arange(n_chains, dtype=np.intp))
                failing = np.asarray(
                    self.spec.indicator(self.metric(x_start)), dtype=bool
                )
                per_chain += 1
                if not failing.all():
                    bad = np.flatnonzero(~failing)
                    raise ValueError(
                        f"starting point(s) {bad.tolist()} not in the failure region"
                    )

            coord = 0  # 0 = radius, 1..M = orientation components
            for k in range(n_samples):
                if coord == 0:
                    if self.normalize_each_sweep:
                        # Scale redundancy of Eq. (11): x is unchanged, but
                        # the orientation slices regain search-visible width.
                        alpha = scale * self._unit_rows(alpha)
                    fails = self._radius_indicator_lockstep(self._unit_rows(alpha))
                    new_r, intervals = sample_conditional_batch(
                        fails, current=r, base=self._chi,
                        lo=1e-9, hi=self.r_max, rng=draw_rng,
                        bisect_iters=self.bisect_iters,
                        ladder_width=self.ladder_width,
                    )
                    r = new_r
                else:
                    m = coord - 1
                    current = np.clip(alpha[:, m], -self.zeta, self.zeta)
                    fails = self._orientation_indicator_lockstep(r, alpha, m)
                    new_alpha_m, intervals = sample_conditional_batch(
                        fails, current=current, base=self._normal,
                        lo=-self.zeta, hi=self.zeta, rng=draw_rng,
                        bisect_iters=self.alpha_bisect_iters,
                        ladder_width=self.ladder_width,
                    )
                    alpha[:, m] = new_alpha_m
                per_chain += intervals.per_chain_simulations
                widths[:, k] = intervals.widths
                samples[:, k, :] = r[:, np.newaxis] * self._unit_rows(alpha)
                coord = (coord + 1) % (self.dimension + 1)
        return MultiChainGibbs(
            samples=samples,
            n_simulations=int(per_chain.sum()),
            per_chain_simulations=per_chain,
            interval_widths=widths,
        )
