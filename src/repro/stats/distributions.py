"""Univariate laws used by the Gibbs conditionals.

Two distributions appear in the paper's 1-D conditional PDFs:

* the standard Normal, for Cartesian coordinates ``x_m`` and orientation
  coordinates ``alpha_m`` (Eqs. 1 and 14), and
* the Chi distribution with ``M`` degrees of freedom, for the radius ``r``
  (Eq. 13).

Both are exposed through one small interface (``pdf`` / ``cdf`` / ``ppf`` /
``sample`` / ``support``) so
:func:`repro.gibbs.inverse_transform.sample_conditional_batch` can sample
truncated versions of either by inverse transform without caring which law
it holds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


class StandardNormal:
    """The standard Normal law N(0, 1) of Eq. (1).

    Implemented directly on :mod:`scipy.special` primitives (``erf``,
    ``ndtri``) rather than ``scipy.stats.norm`` to keep the per-call overhead
    negligible — these functions sit inside the innermost Gibbs loop.
    """

    name = "standard_normal"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / _SQRT2PI

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x - math.log(_SQRT2PI)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        # ndtr keeps full relative precision in the deep left tail, where
        # 0.5 * (1 + erf(x / sqrt(2))) would cancel catastrophically — and
        # the deep tail is precisely where SRAM failure slices live.
        return special.ndtr(x)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        return special.ndtri(q)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.standard_normal(size)

    @property
    def support(self):
        return (-np.inf, np.inf)


class ChiDistribution:
    """The Chi distribution with ``dof`` degrees of freedom (Eq. 13).

    This is the law of the radius ``r = ||x||_2`` when ``x`` is an i.i.d.
    standard-Normal vector of length ``dof``.  The pdf matches Eq. (13)::

        f(r) = 2 r^(M-1) exp(-r^2/2) / (2^(M/2) Gamma(M/2))

    ``cdf``/``ppf`` are expressed through the regularised incomplete gamma
    function of the underlying Chi-square law, which is exact and fast.
    """

    name = "chi"

    def __init__(self, dof: int):
        if dof < 1:
            raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
        self.dof = int(dof)
        self._half_dof = 0.5 * self.dof
        # log of the normalisation constant 2 / (2^(M/2) Gamma(M/2))
        self._log_norm = (
            math.log(2.0)
            - self._half_dof * math.log(2.0)
            - math.lgamma(self._half_dof)
        )

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        positive = r > 0
        rp = r[positive]
        out[positive] = np.exp(
            self._log_norm + (self.dof - 1) * np.log(rp) - 0.5 * rp * rp
        )
        return out

    def logpdf(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, -np.inf)
        positive = r > 0
        rp = r[positive]
        out[positive] = self._log_norm + (self.dof - 1) * np.log(rp) - 0.5 * rp * rp
        return out

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        r = np.maximum(r, 0.0)
        # P(R <= r) = P(Chi2_M <= r^2) = gammainc(M/2, r^2/2)
        return special.gammainc(self._half_dof, 0.5 * r * r)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        chi2_quantile = 2.0 * special.gammaincinv(self._half_dof, q)
        return np.sqrt(chi2_quantile)

    def sample(self, rng: np.random.Generator, size=None):
        return np.sqrt(rng.chisquare(self.dof, size))

    @property
    def support(self):
        return (0.0, np.inf)

    @property
    def mean(self) -> float:
        """E[R] = sqrt(2) Gamma((M+1)/2) / Gamma(M/2)."""
        return _SQRT2 * math.exp(
            math.lgamma(0.5 * (self.dof + 1)) - math.lgamma(self._half_dof)
        )


def scipy_equivalent(dist):
    """Return the ``scipy.stats`` frozen distribution matching ``dist``.

    Used only by the test suite for cross-validation, never on hot paths.
    """
    if isinstance(dist, StandardNormal):
        return stats.norm()
    if isinstance(dist, ChiDistribution):
        return stats.chi(dist.dof)
    raise TypeError(f"no scipy equivalent registered for {type(dist).__name__}")
