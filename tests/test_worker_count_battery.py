"""Worker-count battery: one sampling path, whatever pool runs it.

Every sampling entry point runs the same shard grid for ``n_workers=None``
(the inline default), ``n_workers=1`` and two process workers, so the
estimates, the convergence traces and the exact simulation counts are
bit-identical across the three.
"""

import numpy as np
import pytest

from repro.analysis.experiments import compare_methods, run_trials
from repro.baselines.blockade import statistical_blockade
from repro.baselines.mis import mixture_importance_sampling
from repro.baselines.mnis import minimum_norm_importance_sampling
from repro.gibbs.two_stage import gibbs_importance_sampling
from repro.mc.counter import CountedMetric
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.synthetic import LinearMetric

WORKERS = {
    "default": {},
    "one": {"n_workers": 1},
    "two-process": {"n_workers": 2, "backend": "process"},
}


@pytest.fixture(scope="module")
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


def _mc(counted, spec, **workers):
    return brute_force_monte_carlo(
        counted, spec, 6000, rng=3, chunk_size=500, shard_size=1000,
        **workers,
    )


def _mis(counted, spec, **workers):
    return mixture_importance_sampling(
        counted, spec, n_first_stage=500, n_second_stage=3000, rng=3,
        shard_size=1000, **workers,
    )


def _mnis(counted, spec, **workers):
    return minimum_norm_importance_sampling(
        counted, spec, n_first_stage=200, n_second_stage=3000, rng=3,
        shard_size=1000, **workers,
    )


def _gs(counted, spec, **workers):
    return gibbs_importance_sampling(
        counted, spec, n_gibbs=20, n_second_stage=3000, rng=3,
        shard_size=1000, **workers,
    )


def _gs_chains(counted, spec, **workers):
    return gibbs_importance_sampling(
        counted, spec, n_gibbs=12, n_chains=4, n_second_stage=3000, rng=3,
        shard_size=1000, **workers,
    )


def _blockade(counted, spec, **workers):
    return statistical_blockade(
        counted, spec, 20_000, n_train=300, rng=3, shard_size=4096,
        **workers,
    )


RUNNERS = {
    "MC": _mc,
    "MIS": _mis,
    "MNIS": _mnis,
    "G-S": _gs,
    "G-S jittered chains": _gs_chains,
    "blockade": _blockade,
}


def _assert_same_result(a, b):
    assert a.failure_probability == b.failure_probability
    assert a.relative_error == b.relative_error
    assert a.n_first_stage == b.n_first_stage
    assert a.n_second_stage == b.n_second_stage
    if a.trace is None:
        assert b.trace is None
        return
    np.testing.assert_array_equal(a.trace.n_samples, b.trace.n_samples)
    np.testing.assert_array_equal(a.trace.estimate, b.trace.estimate)
    np.testing.assert_array_equal(
        a.trace.relative_error, b.trace.relative_error
    )


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_entry_point_ignores_worker_count(problem, name):
    runs = {}
    for label, workers in WORKERS.items():
        counted = CountedMetric(problem.metric, problem.dimension)
        result = RUNNERS[name](counted, problem.spec, **workers)
        runs[label] = (result, counted.count)
    reference, reference_sims = runs["default"]
    for label in ("one", "two-process"):
        result, sims = runs[label]
        _assert_same_result(result, reference)
        assert sims == reference_sims, label
        chain = reference.extras.get("chain")
        if chain is not None:
            np.testing.assert_array_equal(
                result.extras["chain"].samples, chain.samples
            )


def test_compare_methods_ignores_worker_count(problem):
    panels = [
        compare_methods(
            problem, methods=("MNIS", "G-S"), seed=5,
            n_second_stage=2000, n_gibbs=12, n_chains=2, doe_budget=200,
            **workers,
        )
        for workers in WORKERS.values()
    ]
    for panel in panels[1:]:
        assert list(panel) == list(panels[0])
        for method, result in panel.items():
            _assert_same_result(result, panels[0][method])


def test_run_trials_ignores_worker_count(problem):
    batteries = [
        run_trials(
            problem, "MC", 3, seed=5, n_second_stage=3000, shard_size=1000,
            **workers,
        )
        for workers in WORKERS.values()
    ]
    for trials in batteries[1:]:
        assert len(trials) == 3
        for result, reference in zip(trials, batteries[0]):
            _assert_same_result(result, reference)
