"""Statistical primitives used throughout the reproduction.

This package holds everything probability-related that is *not* specific to
the Gibbs algorithms themselves: the standard Normal and Chi(M) laws of
Eqs. (1) and (13), whose ``cdf`` / ``ppf`` the Gibbs conditionals' truncated
inverse-transform draw uses (Algorithm 3, steps 3-4, in
:func:`repro.gibbs.inverse_transform.sample_conditional_batch`),
multivariate-Normal fitting/sampling for the two-stage flow (Algorithm 5),
PCA whitening for correlated process variables, and the
99%-confidence-interval relative-error figure of merit used by all of
Section V.
"""

from repro.stats.confidence import (
    confidence_halfwidth,
    montecarlo_relative_error,
    relative_error,
)
from repro.stats.distributions import ChiDistribution, StandardNormal
from repro.stats.mixture import GaussianMixture
from repro.stats.mvnormal import MultivariateNormal
from repro.stats.pca import PCAWhitener

__all__ = [
    "StandardNormal",
    "ChiDistribution",
    "MultivariateNormal",
    "GaussianMixture",
    "PCAWhitener",
    "relative_error",
    "confidence_halfwidth",
    "montecarlo_relative_error",
]
