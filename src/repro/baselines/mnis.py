"""Minimum-norm importance sampling (MNIS), the paper's reference [14].

Qazi et al. centre a unit-covariance Normal on the *minimum-norm failure
point* — the failure point closest to the origin, i.e. the single most
likely failure.  Our implementation reuses the same model-based norm
minimisation as Algorithm 4 (the paper itself notes Eq. (29) "is similar to
the norm minimization approach proposed in [10]"), which keeps the
first-stage budget comparable to the published 1000 simulations.

Like MIS, the proposal adapts only its mean: ``g(x) = f(x - x*)``.  The
identity covariance is the method's Achilles' heel on stretched or bent
failure regions — exactly what Table II demonstrates.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.gibbs.starting_point import find_starting_point
from repro.mc.counter import CountedMetric
from repro.mc.importance import importance_sampling_estimate
from repro.mc.indicator import FailureSpec
from repro.mc.results import EstimationResult
from repro.stats.mvnormal import MultivariateNormal
from repro.utils.rng import SeedLike, ensure_rng


def minimum_norm_importance_sampling(
    metric: Callable,
    spec: FailureSpec,
    dimension: Optional[int] = None,
    n_first_stage: int = 1000,
    n_second_stage: int = 10000,
    rng: SeedLike = None,
    surrogate_order: str = "quadratic",
    zeta: float = 8.0,
    store_samples: bool = False,
    n_workers=None,
    backend: str = "process",
    shard_size=8192,
    executor=None,
    checkpoint_dir=None,
    resume: bool = True,
) -> EstimationResult:
    """Run the full MNIS flow and return its estimate.

    ``n_first_stage`` is the norm-minimisation budget (DOE plus
    verification walks); the proposal is ``N(x*, I)``.
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

    start = find_starting_point(
        counted, spec, dimension, rng,
        doe_budget=max(n_first_stage - 10, 20),
        order=surrogate_order, zeta=zeta,
    )
    proposal = MultivariateNormal(start.x, np.eye(dimension))
    n_stage1 = counted.checkpoint() - stage1_start

    return importance_sampling_estimate(
        counted,
        spec,
        proposal,
        n_second_stage,
        method="MNIS",
        rng=rng,
        n_first_stage=n_stage1,
        store_samples=store_samples,
        extras={"minimum_norm_point": start.x, "starting_point": start},
        n_workers=n_workers,
        backend=backend,
        shard_size=shard_size,
        executor=executor,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
