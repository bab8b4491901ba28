"""Tests for 1-D conditional sampling (repro.gibbs.inverse_transform)."""

import numpy as np
from scipy import stats

from repro.gibbs.inverse_transform import sample_conditional_batch
from repro.stats.distributions import ChiDistribution, StandardNormal


def interval_indicator(lo, hi):
    """Every chain fails on the same slice ``[lo, hi]``."""

    def fails(chain_idx, values):
        return (values >= lo) & (values <= hi)

    return fails


def streams(n, seed=12345):
    """``n`` independent per-chain generators."""
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(n)
    ]


def draw(fails, current, n, base, lo, hi, seed=12345, **kwargs):
    """One lockstep draw for ``n`` chains that all start at ``current``."""
    return sample_conditional_batch(
        fails, np.full(n, current), base, lo, hi, streams(n, seed), **kwargs
    )


class TestSampleConditional:
    def test_draw_inside_failure_region(self):
        values, intervals = draw(
            interval_indicator(1.0, 3.0), 2.0, 50, StandardNormal(),
            -8.0, 8.0, bisect_iters=8,
        )
        assert np.all((values >= 1.0 - 0.05) & (values <= 3.0 + 0.05))
        assert np.all(
            (values >= intervals.lower) & (values <= intervals.upper)
        )
        assert np.all(intervals.per_chain_simulations > 0)

    def test_draws_follow_truncated_normal(self):
        """Algorithm 3 end-to-end: the conditional draws must follow the
        truncated standard Normal over the failure slice (Eq. 22)."""
        values, _ = draw(
            interval_indicator(1.0, 2.5), 1.5, 3000, StandardNormal(),
            -8.0, 8.0, bisect_iters=14,
        )
        ks = stats.kstest(values, stats.truncnorm(1.0, 2.5).cdf)
        assert ks.pvalue > 1e-3

    def test_chi_base_distribution(self):
        """Radius conditional (Eq. 24): truncated Chi(M) draws."""
        values, _ = draw(
            interval_indicator(2.0, 4.0), 3.0, 2000, ChiDistribution(6),
            1e-9, 12.0, bisect_iters=14,
        )
        frozen = stats.chi(6)

        def trunc_cdf(r):
            return (frozen.cdf(r) - frozen.cdf(2.0)) / (
                frozen.cdf(4.0) - frozen.cdf(2.0)
            )

        ks = stats.kstest(values, trunc_cdf)
        assert ks.pvalue > 1e-3

    def test_degenerate_interval_keeps_current(self):
        """A slice narrower than the search resolution: the sampler must
        keep the current value instead of crashing."""
        values, intervals = draw(
            interval_indicator(0.9999, 1.0001), 1.0, 4, StandardNormal(),
            -8.0, 8.0, bisect_iters=4,
        )
        np.testing.assert_array_equal(intervals.widths, 0.0)
        np.testing.assert_array_equal(values, 1.0)

    def test_deterministic_with_seed(self):
        fails = interval_indicator(0.0, 2.0)
        a, _ = draw(fails, 1.0, 8, StandardNormal(), -8.0, 8.0, seed=1)
        b, _ = draw(fails, 1.0, 8, StandardNormal(), -8.0, 8.0, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_deep_tail_zero_mass_interval_keeps_current(self):
        """An interval so deep in the tail that its CDF mass underflows:
        keep the current point rather than fabricating a draw."""
        values, intervals = draw(
            interval_indicator(38.0, 39.0), 38.5, 4, StandardNormal(),
            -40.0, 40.0, bisect_iters=6,
        )
        assert np.all(intervals.widths > 0.0)
        np.testing.assert_array_equal(values, 38.5)

    def test_guarded_chains_keep_value_and_stream(self):
        """Chains whose interval collapsed or carries no mass keep their
        value and leave their generator untouched while a neighbour in the
        same batch draws — exactly the draw it makes alone."""
        slices = np.array([[1.0, 3.0], [0.9999, 1.0001], [38.0, 39.0]])
        current = np.array([2.0, 1.0, 38.5])

        def fails(chain_idx, values):
            lo, hi = slices[chain_idx].T
            return (values >= lo) & (values <= hi)

        rngs = streams(3, seed=7)
        before = [r.bit_generator.state for r in rngs]
        values, intervals = sample_conditional_batch(
            fails, current, StandardNormal(), -40.0, 40.0, rngs,
            bisect_iters=6,
        )
        assert intervals.widths[1] == 0.0 < intervals.widths[2]
        assert values[1] == current[1] and values[2] == current[2]
        assert rngs[1].bit_generator.state == before[1]
        assert rngs[2].bit_generator.state == before[2]
        assert rngs[0].bit_generator.state != before[0]
        assert 1.0 <= values[0] <= 3.0 and values[0] != current[0]

        alone, _ = sample_conditional_batch(
            fails, current[:1], StandardNormal(), -40.0, 40.0,
            streams(3, seed=7)[:1], bisect_iters=6,
        )
        assert alone[0] == values[0]
