"""Tests for truncated-law inverse-transform draws (Algorithm 3, steps 3-4).

The Gibbs conditionals draw their truncated Normal and Chi laws through
:func:`repro.gibbs.inverse_transform.sample_conditional_batch`, one chain
per draw.  Each test sets the failure slice to the truncation interval
under test, resolves it finely, and draws thousands of chains at once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.gibbs.inverse_transform import sample_conditional_batch
from repro.stats.distributions import ChiDistribution, StandardNormal


def truncated_draws(base, lower, upper, n, seed=0, lo=-10.0, hi=10.0):
    """``n`` draws of ``base`` truncated to ``[lower, upper]``, one per
    chain, plus the verified intervals they were drawn on."""

    def fails(chain_idx, values):
        return (values >= lower) & (values <= upper)

    rngs = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(n)
    ]
    current = np.full(n, 0.5 * (max(lower, lo) + min(upper, hi)))
    return sample_conditional_batch(
        fails, current, base, lo, hi, rngs, bisect_iters=20
    )


class TestConstruction:
    def test_interval_clipped_to_support(self):
        """A slice reaching below the Chi support draws on ``[0, upper]``."""
        draws, intervals = truncated_draws(
            ChiDistribution(4), -3.0, 2.0, 5000, lo=-3.0, hi=2.0
        )
        np.testing.assert_array_equal(intervals.lower, -3.0)
        assert np.all((draws >= 0.0) & (draws <= 2.0))
        frozen = stats.chi(4)
        ks = stats.kstest(draws, lambda r: frozen.cdf(r) / frozen.cdf(2.0))
        assert ks.pvalue > 1e-3


class TestSampling:
    @given(
        st.floats(-6.0, 5.0),
        st.floats(0.05, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_samples_inside_interval(self, lower, width):
        draws, intervals = truncated_draws(
            StandardNormal(), lower, lower + width, 500
        )
        assert np.all(draws >= lower)
        assert np.all(draws <= lower + width)
        assert np.all((draws >= intervals.lower) & (draws <= intervals.upper))

    def test_distribution_matches_truncnorm(self):
        lower, upper = 1.0, 3.0
        draws, _ = truncated_draws(StandardNormal(), lower, upper, 20_000)
        ks = stats.kstest(draws, stats.truncnorm(lower, upper).cdf)
        assert ks.pvalue > 1e-3

    def test_deep_tail_sampling_feasible(self):
        """This is the regime the paper lives in: slices at 4-6 sigma."""
        draws, _ = truncated_draws(StandardNormal(), 5.0, 8.0, 5000)
        assert np.all((draws >= 5.0) & (draws <= 8.0))
        # Mass concentrates hard against the lower edge.
        assert np.mean(draws < 5.5) > 0.9

    def test_chi_truncated_distribution(self):
        draws, _ = truncated_draws(ChiDistribution(6), 3.0, 5.0, 20_000)
        frozen = stats.chi(6)

        def trunc_cdf(r):
            return (frozen.cdf(r) - frozen.cdf(3.0)) / (
                frozen.cdf(5.0) - frozen.cdf(3.0)
            )

        ks = stats.kstest(draws, trunc_cdf)
        assert ks.pvalue > 1e-3

    def test_deterministic_with_seed(self):
        a, _ = truncated_draws(StandardNormal(), -1.0, 2.0, 10, seed=3)
        b, _ = truncated_draws(StandardNormal(), -1.0, 2.0, 10, seed=3)
        np.testing.assert_array_equal(a, b)
