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

from typing import Callable, Optional, Sequence

import numpy as np

from repro.circuit import warm as _warm
from repro.gibbs.cartesian import GibbsChain, MultiChainGibbs
from repro.gibbs.inverse_transform import sample_conditional_batch
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
    def _unit_rows(alpha: np.ndarray) -> np.ndarray:
        # Row-wise 1-D norms rather than a single axis=1 reduction: the two
        # differ in the last ulp (BLAS dot vs ufunc reduce), and this order
        # keeps every recorded chain bit-identical.
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
            # A zero-length candidate has no direction and cannot be a
            # failure sample (a measure-zero event deep inside the passing
            # bulk), and is never sent to the simulator.
            safe = norms > 1e-300
            out = np.zeros(values.size, dtype=bool)
            if safe.any():
                # Only the safe rows reach the metric, so the lane tag
                # must select exactly those rows.
                _warm.set_lanes(chain_idx, rows=safe)
                # This operation order keeps every recorded chain
                # bit-identical.
                points = (
                    r[chain_idx][safe, np.newaxis] * candidates[safe]
                    / norms[safe, np.newaxis]
                )
                out[safe] = self.spec.indicator(self.metric(points))
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
        """One chain of :meth:`run_lockstep` from ``(r0, alpha0)``.

        The library itself calls :meth:`run_lockstep`; this adapter keeps
        the one-chain call, and the name perfbench's span wrappers look up.
        """
        return self.run_lockstep(
            r0, np.reshape(alpha0, (1, -1)), n_samples, [rng], verify_start
        ).chain(0)

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
        any number.  ``(r0, alpha0)`` come from Algorithm 4 via
        :func:`repro.gibbs.coordinates.initial_spherical_coordinates`, and
        samples are returned in Cartesian coordinates.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        alpha = np.atleast_2d(np.asarray(alpha0, dtype=float)).copy()
        if alpha.ndim != 2 or alpha.shape[1] != self.dimension:
            raise ValueError(
                f"alpha0 has shape {np.shape(alpha0)}, expected "
                f"(n_chains, dimension={self.dimension})"
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
