"""Gibbs-sampling importance sampling: the paper's contribution.

* :mod:`repro.gibbs.bounds` — 1-D failure-interval binary search
  (Algorithm 3 step 2).
* :mod:`repro.gibbs.inverse_transform` — truncated-conditional sampling
  (Algorithm 3 steps 3-4).
* :mod:`repro.gibbs.cartesian` — the Cartesian-coordinate chain
  (Algorithm 1, "G-C").
* :mod:`repro.gibbs.spherical` — the spherical-coordinate chain with the
  redundant (r, alpha) parameterisation (Eqs. 11-15, Algorithm 2, "G-S").
* :mod:`repro.gibbs.coordinates` — the Cartesian/spherical mapping and the
  maximum-likelihood initial coordinates (Eqs. 30-32).
* :mod:`repro.gibbs.starting_point` — model-based minimum-norm starting
  point (Algorithm 4).
* :mod:`repro.gibbs.two_stage` — the complete two-stage Monte-Carlo flow
  (Algorithm 5).
"""

from repro.gibbs.bounds import (
    BatchedFailureIntervals,
    FailureInterval,
    batched_failure_interval,
    failure_interval,
    ladder_rounds,
)
from repro.gibbs.cartesian import CartesianGibbs, GibbsChain, MultiChainGibbs
from repro.gibbs.coordinates import (
    initial_spherical_coordinates,
    spherical_to_cartesian,
)
from repro.gibbs.inverse_transform import sample_conditional_batch
from repro.gibbs.spherical import SphericalGibbs
from repro.gibbs.starting_point import StartingPoint, find_starting_point
from repro.gibbs.two_stage import (
    FirstStageArtifact,
    fit_first_stage,
    gibbs_importance_sampling,
)

__all__ = [
    "failure_interval",
    "FailureInterval",
    "batched_failure_interval",
    "BatchedFailureIntervals",
    "ladder_rounds",
    "sample_conditional_batch",
    "CartesianGibbs",
    "SphericalGibbs",
    "GibbsChain",
    "MultiChainGibbs",
    "spherical_to_cartesian",
    "initial_spherical_coordinates",
    "StartingPoint",
    "find_starting_point",
    "gibbs_importance_sampling",
    "FirstStageArtifact",
    "fit_first_stage",
]
