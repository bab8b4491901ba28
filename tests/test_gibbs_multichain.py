"""Tests for the lockstep multi-chain Gibbs engine.

Three contracts are pinned here:

1. the batched interval search is *exactly* the scalar search run per
   chain — same intervals, same per-chain simulation counts (property
   test over random regions and depths);
2. with one chain the lockstep samplers are bit-for-bit identical to the
   sequential ``run`` under the same seed — multi-chain mode is a pure
   execution-strategy change, not a statistical one;
3. the ``CountedMetric`` accounting of a C-chain lockstep run equals the
   sum of C scalar-chain runs while issuing far fewer metric *calls*.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gibbs.bounds import batched_failure_interval, failure_interval
from repro.gibbs.cartesian import CartesianGibbs, MultiChainGibbs
from repro.gibbs.coordinates import initial_spherical_coordinates
from repro.gibbs.spherical import SphericalGibbs
from repro.gibbs.two_stage import gibbs_importance_sampling
from repro.mc.counter import CountedMetric
from repro.mc.indicator import FailureSpec
from repro.synthetic import LinearMetric, QuadrantMetric

SPEC = FailureSpec(0.0, fail_below=True)
ZETA = 8.0


# --------------------------------------------------------------------------
# 1. Batched search == C independent scalar searches (property test)
# --------------------------------------------------------------------------

@st.composite
def interval_problems(draw):
    """Per-chain failure intervals inside [-8, 8] plus a failing current."""
    n_chains = draw(st.integers(1, 6))
    regions, currents = [], []
    for _ in range(n_chains):
        if draw(st.booleans()):  # region touching the left clamp
            a = -ZETA
        else:
            a = draw(st.floats(-7.5, 7.0))
        if draw(st.booleans()):  # region touching the right clamp
            b = ZETA
        else:
            b = min(a + draw(st.floats(0.1, 4.0)), 7.9)
        t = draw(st.floats(0.0, 1.0))
        regions.append((a, b))
        currents.append(a + t * (b - a))
    return regions, currents


class TestBatchedSearchParity:
    @given(interval_problems(), st.integers(1, 8), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_search_per_chain(
        self, problem, bisect_iters, ladder_width
    ):
        regions, currents = problem

        def scalar_fails(c):
            a, b = regions[c]
            return lambda v: (np.atleast_1d(v) >= a) & (np.atleast_1d(v) <= b)

        def batched_fails(chain_idx, values):
            lo_arr = np.array([regions[c][0] for c in chain_idx])
            hi_arr = np.array([regions[c][1] for c in chain_idx])
            return (values >= lo_arr) & (values <= hi_arr)

        batched = batched_failure_interval(
            batched_fails, np.array(currents), -ZETA, ZETA,
            bisect_iters=bisect_iters, ladder_width=ladder_width,
        )
        for c, current in enumerate(currents):
            scalar = failure_interval(
                scalar_fails(c), current, -ZETA, ZETA,
                bisect_iters=bisect_iters, ladder_width=ladder_width,
            )
            # Bitwise equality: the bisection arithmetic is identical.
            assert batched.lower[c] == scalar.lower
            assert batched.upper[c] == scalar.upper
            assert batched.per_chain_simulations[c] == scalar.n_simulations
        assert batched.n_simulations == int(batched.per_chain_simulations.sum())

    def test_rejects_current_outside_clamps(self):
        def fails(chain_idx, values):
            return np.ones(values.size, dtype=bool)

        with pytest.raises(ValueError, match="outside clamp"):
            batched_failure_interval(fails, np.array([0.0, 9.0]), -8.0, 8.0)

    def test_rejects_empty_batch(self):
        def fails(chain_idx, values):
            return np.ones(values.size, dtype=bool)

        with pytest.raises(ValueError, match="at least one chain"):
            batched_failure_interval(fails, np.array([]), -8.0, 8.0)


# --------------------------------------------------------------------------
# 2. Single-chain lockstep == sequential, bit for bit
# --------------------------------------------------------------------------

def _rngs(seed, n_chains):
    """One generator per chain."""
    return [np.random.default_rng(seed + c) for c in range(n_chains)]


class TestSingleChainBitEquality:
    def test_cartesian(self):
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        x0 = np.array([3.5, 0.0])
        sampler = CartesianGibbs(metric, SPEC)
        seq = sampler.run(x0, 40, np.random.default_rng(7))
        lock = sampler.run_lockstep(
            x0, 40, chain_rngs=[np.random.default_rng(7)]
        )
        assert lock.n_chains == 1
        assert np.array_equal(seq.samples, lock.samples[0])
        assert seq.n_simulations == lock.n_simulations
        assert np.array_equal(
            np.asarray(seq.interval_widths), lock.interval_widths[0]
        )

    def test_spherical(self):
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        r0, a0 = initial_spherical_coordinates(np.array([3.5, 0.0]))
        sampler = SphericalGibbs(metric, SPEC)
        seq = sampler.run(r0, a0, 40, np.random.default_rng(11))
        lock = sampler.run_lockstep(
            r0, a0, 40, chain_rngs=[np.random.default_rng(11)]
        )
        assert np.array_equal(seq.samples, lock.samples[0])
        assert seq.n_simulations == lock.n_simulations

    def test_cartesian_quadrant_region(self):
        """Bit-parity must also hold when clamp endpoints fail (one-sided
        searches) — the quadrant region exercises that branch."""
        metric = QuadrantMetric(np.zeros(2))
        x0 = np.array([1.0, 1.0])
        sampler = CartesianGibbs(metric, SPEC)
        seq = sampler.run(x0, 30, np.random.default_rng(5))
        lock = sampler.run_lockstep(
            x0, 30, chain_rngs=[np.random.default_rng(5)]
        )
        assert np.array_equal(seq.samples, lock.samples[0])
        assert seq.n_simulations == lock.n_simulations


# --------------------------------------------------------------------------
# 3. Simulation-count parity and call batching for C > 1
# --------------------------------------------------------------------------

class TestMultiChainAccounting:
    def test_count_parity_with_scalar_runs(self):
        """Lockstep CountedMetric count == sum of C scalar-chain runs.

        On the quadrant region every coordinate update costs a fixed,
        rng-independent number of simulations (the left endpoint always
        passes, the right always fails), so the scalar-run totals are
        comparable across different random seeds.
        """
        starts = np.array([[1.0, 1.0], [0.5, 2.0], [2.0, 0.5], [1.5, 1.5]])
        n_samples = 25

        scalar_total = 0
        scalar_calls = 0
        for c, x0 in enumerate(starts):
            counted = CountedMetric(QuadrantMetric(np.zeros(2)), 2)
            sampler = CartesianGibbs(counted, SPEC)
            chain = sampler.run(
                x0, n_samples, np.random.default_rng(100 + c)
            )
            assert counted.count == chain.n_simulations
            scalar_total += counted.count
            scalar_calls += counted.calls

        counted = CountedMetric(QuadrantMetric(np.zeros(2)), 2)
        sampler = CartesianGibbs(counted, SPEC)
        multi = sampler.run_lockstep(
            starts, n_samples, chain_rngs=_rngs(999, 4)
        )
        assert counted.count == multi.n_simulations == scalar_total
        assert np.all(multi.per_chain_simulations == scalar_total // 4)
        # Batching: same simulation count issued in ~4x fewer metric calls
        # (every update's endpoint/bisection queries cover all 4 chains).
        assert counted.calls * 2 < scalar_calls

    def test_counter_tracks_calls_and_reset(self):
        counted = CountedMetric(QuadrantMetric(np.zeros(2)), 2)
        counted(np.zeros((5, 2)))
        counted(np.zeros((3, 2)))
        assert counted.count == 8
        assert counted.calls == 2
        counted.reset()
        assert counted.count == 0
        assert counted.calls == 0

    def test_container_views(self):
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        sampler = CartesianGibbs(metric, SPEC)
        starts = np.array([[3.5, 0.0], [3.2, 0.4], [3.8, -0.3]])
        multi = sampler.run_lockstep(starts, 12, chain_rngs=_rngs(2, 3))
        assert isinstance(multi, MultiChainGibbs)
        assert multi.samples.shape == (3, 12, 2)
        assert multi.n_samples == 36
        assert multi.pooled_samples.shape == (36, 2)
        assert np.array_equal(multi.pooled_samples[12:24], multi.samples[1])
        one = multi.chain(1)
        assert np.array_equal(one.samples, multi.samples[1])
        assert one.n_simulations == multi.per_chain_simulations[1]
        assert multi.simulations_per_sample == pytest.approx(
            multi.n_simulations / 36
        )

    def test_lockstep_rejects_passing_start(self):
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        sampler = CartesianGibbs(metric, SPEC)
        starts = np.array([[3.5, 0.0], [0.0, 0.0]])  # second start passes
        with pytest.raises(ValueError, match="not in the failure region"):
            sampler.run_lockstep(starts, 5, chain_rngs=_rngs(0, 2))

    def test_spherical_lockstep_rejects_bad_r0_size(self):
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        sampler = SphericalGibbs(metric, SPEC)
        _, a0 = initial_spherical_coordinates(np.array([3.5, 0.0]))
        with pytest.raises(ValueError):
            sampler.run_lockstep(
                np.array([3.5, 3.5, 3.5]), np.tile(a0, (2, 1)), 5,
                chain_rngs=_rngs(0, 2),
            )


# --------------------------------------------------------------------------
# 4. Multi-chain two-stage flow
# --------------------------------------------------------------------------

class TestMultiChainTwoStage:
    def test_accuracy_and_diagnostics(self):
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        exact = metric.exact_failure_probability
        result = gibbs_importance_sampling(
            metric, SPEC, dimension=2,
            coordinate_system="cartesian",
            n_gibbs=150, n_chains=4, n_second_stage=4000,
            rng=np.random.default_rng(3),
        )
        assert result.failure_probability == pytest.approx(exact, rel=0.3)
        diag = result.extras["chain_diagnostics"]
        assert diag.n_chains == 4
        assert diag.n_samples_per_chain == 150
        assert np.isfinite(diag.max_rhat)
        chain = result.extras["chain"]
        assert chain.samples.shape == (4, 150, 2)

    def test_spherical_multichain_runs(self):
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        exact = metric.exact_failure_probability
        result = gibbs_importance_sampling(
            metric, SPEC, dimension=2,
            coordinate_system="spherical",
            n_gibbs=120, n_chains=3, n_second_stage=4000,
            rng=np.random.default_rng(17),
        )
        assert result.failure_probability == pytest.approx(exact, rel=0.3)
        assert result.extras["chain"].n_chains == 3

    def test_single_chain_has_no_chain_diagnostics(self):
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        result = gibbs_importance_sampling(
            metric, SPEC, dimension=2,
            coordinate_system="cartesian",
            n_gibbs=60, n_chains=1, n_second_stage=500,
            rng=np.random.default_rng(1),
        )
        assert "chain_diagnostics" not in result.extras

    def test_short_chains_skip_diagnostics(self):
        """Split R-hat needs 4 samples/chain; shorter multi-chain runs must
        still produce an estimate, just without the diagnostics."""
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        result = gibbs_importance_sampling(
            metric, SPEC, dimension=2,
            n_gibbs=3, n_chains=4, n_second_stage=200,
            rng=np.random.default_rng(0),
        )
        assert result.failure_probability > 0
        assert "chain_diagnostics" not in result.extras

    def test_invalid_n_chains_raises(self):
        metric = LinearMetric(np.array([1.0, 0.0]), 3.0)
        with pytest.raises(ValueError, match="n_chains"):
            gibbs_importance_sampling(
                metric, SPEC, dimension=2, n_chains=0,
                rng=np.random.default_rng(0),
            )
