"""Mixture importance sampling (MIS), the paper's reference [8].

Kanj et al.'s two-stage recipe:

1. *Exploration*: draw uniform samples over a wide hypercube
   ``[-s, +s]^M`` and simulate them; the failing ones sketch the failure
   region, and their centre of gravity ``mu_s`` becomes the mean shift.
2. *Estimation*: sample the mixture

       g(x) = l1 f(x) + l2 U(x) + (1 - l1 - l2) f(x - mu_s)

   (original law, uniform over the cube, and the mean-shifted law) and
   apply the importance-sampling estimator.  The mixture's ``f`` and ``U``
   components guarantee heavy enough tails for bounded weights; the
   shifted component does the work.

The crucial limitation the paper exploits: MIS only learns a *mean* —
the covariance of the proposal stays the identity, so elongated or bent
failure regions are covered poorly (Figs. 8, 13a).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.mc.counter import CountedMetric
from repro.mc.importance import importance_sampling_estimate
from repro.mc.indicator import FailureSpec
from repro.mc.results import EstimationResult
from repro.stats.mvnormal import MultivariateNormal
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import as_sample_matrix


class MixtureProposal:
    """The three-component MIS sampling distribution."""

    def __init__(
        self,
        shift: np.ndarray,
        lambda_original: float = 0.1,
        lambda_uniform: float = 0.0,
        cube_halfwidth: float = 6.0,
    ):
        shift = np.asarray(shift, dtype=float).reshape(-1)
        lam_shift = 1.0 - lambda_original - lambda_uniform
        if min(lambda_original, lambda_uniform, lam_shift) < 0:
            raise ValueError("mixture weights must be non-negative and sum to <= 1")
        if lam_shift <= 0:
            raise ValueError("the shifted component must carry positive weight")
        self.shift = shift
        self.dimension = shift.size
        self.lambda_original = float(lambda_original)
        self.lambda_uniform = float(lambda_uniform)
        self.lambda_shift = float(lam_shift)
        self.cube_halfwidth = float(cube_halfwidth)
        self._original = MultivariateNormal.standard(self.dimension)
        self._shifted = MultivariateNormal(shift, np.eye(self.dimension))
        self._log_uniform_density = -self.dimension * np.log(2.0 * cube_halfwidth)

    def sample(self, n: int, rng: SeedLike = None) -> np.ndarray:
        rng = ensure_rng(rng)
        choice = rng.uniform(size=n)
        out = np.empty((n, self.dimension))
        n_orig = int(np.sum(choice < self.lambda_original))
        n_unif = int(
            np.sum(
                (choice >= self.lambda_original)
                & (choice < self.lambda_original + self.lambda_uniform)
            )
        )
        n_shift = n - n_orig - n_unif
        parts = []
        if n_orig:
            parts.append(self._original.sample(n_orig, rng))
        if n_unif:
            parts.append(
                rng.uniform(
                    -self.cube_halfwidth, self.cube_halfwidth,
                    (n_unif, self.dimension),
                )
            )
        if n_shift:
            parts.append(self._shifted.sample(n_shift, rng))
        out = np.vstack(parts)
        rng.shuffle(out, axis=0)
        return out

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        x = as_sample_matrix(x, self.dimension)
        densities = self.lambda_shift * np.exp(self._shifted.logpdf(x))
        if self.lambda_original > 0:
            densities = densities + self.lambda_original * np.exp(
                self._original.logpdf(x)
            )
        if self.lambda_uniform > 0:
            inside = np.all(np.abs(x) <= self.cube_halfwidth, axis=1)
            densities = densities + np.where(
                inside,
                self.lambda_uniform * np.exp(self._log_uniform_density),
                0.0,
            )
        with np.errstate(divide="ignore"):
            return np.log(densities)


def mixture_importance_sampling(
    metric: Callable,
    spec: FailureSpec,
    dimension: Optional[int] = None,
    n_first_stage: int = 5000,
    n_second_stage: int = 10000,
    rng: SeedLike = None,
    cube_halfwidth: float = 6.0,
    lambda_original: float = 0.1,
    lambda_uniform: float = 0.0,
    store_samples: bool = False,
    n_workers=None,
    backend: str = "process",
    shard_size=8192,
    executor=None,
    checkpoint_dir=None,
    resume: bool = True,
) -> EstimationResult:
    """Run the full MIS flow and return its estimate.

    Raises ``RuntimeError`` if the exploration stage finds no failing
    sample — with the default 5000-point cube this means the failure region
    is outside ``[-s, +s]^M`` or vanishingly thin.

    ``n_workers``/``backend`` set how many second-stage shards run at
    once (see :func:`repro.mc.importance.importance_sampling_estimate`);
    ``executor`` reuses a caller-owned pool (e.g. the yield service's)
    instead.
    """
    rng = ensure_rng(rng)
    counted = metric if isinstance(metric, CountedMetric) else CountedMetric(
        metric, dimension
    )
    dimension = counted.dimension
    stage1_start = counted.checkpoint()

    x_explore = rng.uniform(
        -cube_halfwidth, cube_halfwidth, (n_first_stage, dimension)
    )
    failing = spec.indicator(counted(x_explore))
    if not np.any(failing):
        raise RuntimeError(
            f"MIS exploration found no failures in {n_first_stage} uniform "
            f"samples over [-{cube_halfwidth}, {cube_halfwidth}]^{dimension}"
        )
    centre_of_gravity = x_explore[failing].mean(axis=0)
    proposal = MixtureProposal(
        centre_of_gravity, lambda_original, lambda_uniform, cube_halfwidth
    )
    n_stage1 = counted.checkpoint() - stage1_start

    return importance_sampling_estimate(
        counted,
        spec,
        proposal,
        n_second_stage,
        method="MIS",
        rng=rng,
        n_first_stage=n_stage1,
        store_samples=store_samples,
        extras={"shift": centre_of_gravity, "n_exploration_failures": int(failing.sum())},
        n_workers=n_workers,
        backend=backend,
        shard_size=shard_size,
        executor=executor,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
