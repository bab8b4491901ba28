"""Integration tests: full estimation flows on the SRAM circuit problems.

These run the real transistor-level substrate end-to-end and are therefore
the slowest tests in the suite; budgets are kept small — they check
consistency and mechanics, not publication-grade accuracy (the benchmark
harness does that with full budgets).
"""

import numpy as np
import pytest

from repro.analysis.experiments import compare_methods, run_method
from repro.baselines.mnis import minimum_norm_importance_sampling
from repro.gibbs.two_stage import gibbs_importance_sampling
from repro.mc.counter import CountedMetric
from repro.sram.problems import (
    read_current_problem,
    read_noise_margin_problem,
    write_noise_margin_problem,
)


@pytest.fixture(scope="module")
def iread_problem():
    return read_current_problem()


class TestReadCurrentFlow:
    """The 2-D Section V-B problem: fast metric, good integration target."""

    def test_gs_estimate_in_expected_band(self, iread_problem):
        result = gibbs_importance_sampling(
            iread_problem.metric, iread_problem.spec,
            coordinate_system="spherical",
            n_gibbs=200, n_second_stage=3000, rng=21,
        )
        # Golden MC band (see EXPERIMENTS.md): ~1.9e-5.
        assert 8e-6 < result.failure_probability < 4e-5
        assert np.isfinite(result.relative_error)

    def test_gc_underestimates_nonconvex_region(self, iread_problem):
        """The Table II signature, at reduced budget: G-C's trapped chain
        must yield a notably smaller estimate than G-S.

        G-C is asserted on the median of seeds 22-24: its weights are
        heavy-tailed, and one draw in the arm its chain missed can lift a
        single seed's estimate (seed 22 reads 0.71x G-S at a 196% claimed
        error; the other seeds of 16-27 read 0.12-0.35x).
        """
        gs = gibbs_importance_sampling(
            iread_problem.metric, iread_problem.spec,
            coordinate_system="spherical",
            n_gibbs=200, n_second_stage=3000, rng=22,
        )
        gc = [
            gibbs_importance_sampling(
                iread_problem.metric, iread_problem.spec,
                coordinate_system="cartesian",
                n_gibbs=200, n_second_stage=3000, rng=seed,
            ).failure_probability
            for seed in (22, 23, 24)
        ]
        assert np.median(gc) < 0.7 * gs.failure_probability

    def test_mnis_runs(self, iread_problem):
        result = minimum_norm_importance_sampling(
            iread_problem.metric, iread_problem.spec,
            n_first_stage=300, n_second_stage=2000, rng=23,
        )
        assert result.failure_probability > 0

    def test_sim_counting_through_full_flow(self, iread_problem):
        counted = CountedMetric(iread_problem.metric, iread_problem.dimension)
        result = gibbs_importance_sampling(
            counted, iread_problem.spec,
            n_gibbs=60, n_second_stage=500, rng=24,
        )
        assert counted.count == result.n_total


@pytest.mark.slow
class TestNoiseMarginFlows:
    """6-D flows on the butterfly metrics (slow: sequential chains)."""

    def test_gs_rnm(self):
        prob = read_noise_margin_problem()
        result = gibbs_importance_sampling(
            prob.metric, prob.spec, coordinate_system="spherical",
            n_gibbs=120, n_second_stage=1500, doe_budget=200, rng=31,
        )
        # Loose band around the converged value ~7.3e-6.
        assert 1e-6 < result.failure_probability < 5e-5

    def test_gc_wnm(self):
        prob = write_noise_margin_problem()
        result = gibbs_importance_sampling(
            prob.metric, prob.spec, coordinate_system="cartesian",
            n_gibbs=120, n_second_stage=1500, doe_budget=200, rng=32,
        )
        assert 5e-7 < result.failure_probability < 5e-5

    def test_method_panel_order_of_magnitude_agreement(self):
        prob = read_noise_margin_problem()
        results = compare_methods(
            prob, methods=("MNIS", "G-S"), seed=33,
            n_second_stage=1500, n_gibbs=120, doe_budget=200,
        )
        a = results["MNIS"].failure_probability
        b = results["G-S"].failure_probability
        assert 0.2 < a / b < 5.0
