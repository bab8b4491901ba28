"""Tests for the process-parallel execution layer (repro.parallel).

The load-bearing property is the determinism contract: the shard grid is a
function of ``(n_total, shard_size)`` only and every shard owns the child
stream at its spawn index, so a sharded run is bit-identical for every
worker count and every backend — the serial reference being ``n_workers=1``
of the very same path.
"""

import numpy as np
import pytest

from repro.mc.counter import CountedMetric
from repro.mc.importance import importance_sampling_estimate
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.parallel import (
    MCShardTask,
    ParallelExecutor,
    checkpoint_grid,
    merge_mc_shards,
    plan_shards,
    resolve_executor,
    run_mc_shard,
    spawn_seed_sequences,
)
from repro.stats.mvnormal import MultivariateNormal
from repro.stats.qmc import QMCNormal
from repro.synthetic import LinearMetric


def _double(x):
    return 2 * x


@pytest.fixture
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


class TestParallelExecutor:
    def test_invalid_backend_raises(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelExecutor(backend="gpu")

    def test_invalid_workers_raises(self):
        with pytest.raises(ValueError, match="n_workers"):
            ParallelExecutor(n_workers=0)

    def test_serial_runs_inline(self):
        ex = ParallelExecutor(n_workers=4, backend="serial")
        assert ex.runs_inline and not ex.cross_process

    def test_one_worker_runs_inline_any_backend(self):
        for backend in ("serial", "thread", "process"):
            ex = ParallelExecutor(n_workers=1, backend=backend)
            assert ex.runs_inline and not ex.cross_process

    def test_process_pool_is_cross_process(self):
        ex = ParallelExecutor(n_workers=2, backend="process")
        assert ex.cross_process and not ex.runs_inline

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_map_ordered(self, backend):
        ex = ParallelExecutor(n_workers=2, backend=backend)
        assert ex.map(_double, [3, 1, 2]) == [6, 2, 4]

    def test_map_empty(self):
        assert ParallelExecutor(n_workers=2).map(_double, []) == []

    def test_repr(self):
        assert "thread" in repr(ParallelExecutor(n_workers=2, backend="thread"))

    def test_resolve_prefers_executor(self):
        ex = ParallelExecutor(n_workers=3, backend="thread")
        assert resolve_executor(ex, 8, "process") is ex

    def test_resolve_none_means_inline(self):
        ex = resolve_executor(None, None, "process")
        assert ex.n_workers == 1 and ex.backend == "process"
        assert ex.runs_inline

    def test_resolve_builds_from_workers(self):
        ex = resolve_executor(None, 2, "thread")
        assert ex.n_workers == 2 and ex.backend == "thread"


class TestShardPlan:
    def test_partition_is_exact(self):
        shards = plan_shards(10_000, 4096)
        assert [s.count for s in shards] == [4096, 4096, 1808]
        assert [s.offset for s in shards] == [0, 4096, 8192]
        assert [s.index for s in shards] == [0, 1, 2]

    def test_independent_of_worker_count(self):
        # The plan's signature is (n_total, shard_size) — nothing else.
        assert plan_shards(999, 100) == plan_shards(999, 100)

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            plan_shards(0, 10)
        with pytest.raises(ValueError):
            plan_shards(10, 0)

    def test_checkpoint_grid_clamped_and_unique(self):
        grid = checkpoint_grid(5, 100)
        assert grid[0] >= 1 and grid[-1] == 5
        assert np.all(np.diff(grid) > 0)

    def test_checkpoint_grid_matches_serial_trace(self, problem):
        result = brute_force_monte_carlo(
            problem.metric, problem.spec, 5000, dimension=problem.dimension,
            rng=0, trace_points=50,
        )
        np.testing.assert_array_equal(
            result.trace.n_samples, checkpoint_grid(5000, 50)
        )


class TestShardedMonteCarlo:
    def test_merge_equals_manual_shard_sum(self, problem):
        """The sharded estimator is exactly its shards summed by hand."""
        n = 6000
        shard_size = 1000
        seed = 42
        shards = plan_shards(n, shard_size)
        seeds = spawn_seed_sequences(seed, len(shards))
        cps = checkpoint_grid(n, 40)
        results = [
            run_mc_shard(MCShardTask(
                shard=s, seed=c, metric=problem.metric, spec=problem.spec,
                dimension=problem.dimension, chunk_size=shard_size,
                checkpoints=cps,
            ))
            for s, c in zip(shards, seeds)
        ]
        manual_failures = sum(r.n_failures for r in results)
        merged_failures, trace_n, trace_est, _ = merge_mc_shards(results, n)
        assert merged_failures == manual_failures

        full = brute_force_monte_carlo(
            problem.metric, problem.spec, n, dimension=problem.dimension,
            rng=seed, n_workers=1, shard_size=shard_size, trace_points=40,
        )
        assert full.extras["n_failures"] == manual_failures
        assert full.failure_probability == manual_failures / n
        np.testing.assert_array_equal(full.trace.n_samples, trace_n)
        np.testing.assert_array_equal(full.trace.estimate, trace_est)

    def test_merge_rejects_incomplete_cover(self, problem):
        shards = plan_shards(100, 50)
        seeds = spawn_seed_sequences(0, len(shards))
        cps = checkpoint_grid(100, 10)
        results = [
            run_mc_shard(MCShardTask(
                shard=shards[0], seed=seeds[0], metric=problem.metric,
                spec=problem.spec, dimension=problem.dimension,
                chunk_size=50, checkpoints=cps,
            ))
        ]
        with pytest.raises(ValueError, match="cover"):
            merge_mc_shards(results, 100)

    def test_fixed_seed_and_workers_bit_reproducible(self, problem):
        kwargs = dict(
            dimension=problem.dimension, rng=7, n_workers=2,
            backend="thread", shard_size=512,
        )
        a = brute_force_monte_carlo(problem.metric, problem.spec, 4000, **kwargs)
        b = brute_force_monte_carlo(problem.metric, problem.spec, 4000, **kwargs)
        assert a.failure_probability == b.failure_probability
        np.testing.assert_array_equal(a.trace.estimate, b.trace.estimate)

    @pytest.mark.parametrize("backend,n_workers", [
        ("serial", 4), ("thread", 2), ("thread", 3), ("process", 2),
    ])
    def test_invariant_to_backend_and_workers(self, problem, backend, n_workers):
        """Every backend/worker combination equals the n_workers=1 reference."""
        reference = brute_force_monte_carlo(
            problem.metric, problem.spec, 4000, dimension=problem.dimension,
            rng=3, n_workers=1, shard_size=512,
        )
        other = brute_force_monte_carlo(
            problem.metric, problem.spec, 4000, dimension=problem.dimension,
            rng=3, n_workers=n_workers, backend=backend, shard_size=512,
        )
        assert other.failure_probability == reference.failure_probability
        assert other.extras["n_failures"] == reference.extras["n_failures"]
        np.testing.assert_array_equal(
            other.trace.estimate, reference.trace.estimate
        )

    def test_estimate_close_to_exact(self, problem):
        result = brute_force_monte_carlo(
            problem.metric, problem.spec, 60_000, dimension=problem.dimension,
            rng=0, n_workers=2, backend="thread", shard_size=8192,
        )
        exact = problem.exact_failure_probability
        assert abs(result.failure_probability - exact) < 0.3 * exact + 1e-3

    def test_counts_exact_inline(self, problem):
        metric = CountedMetric(problem.metric, problem.dimension)
        brute_force_monte_carlo(
            metric, problem.spec, 3000, rng=0, n_workers=1, shard_size=1000,
        )
        assert metric.count == 3000

    def test_counts_fold_across_processes(self, problem):
        metric = CountedMetric(problem.metric, problem.dimension)
        brute_force_monte_carlo(
            metric, problem.spec, 3000, rng=0, n_workers=2,
            backend="process", shard_size=1000,
        )
        assert metric.count == 3000
        assert metric.calls == 3


class TestShardedImportanceSampling:
    @pytest.fixture
    def proposal(self, problem):
        mean = np.array([1.8, 0.9])
        return MultivariateNormal(mean, np.eye(problem.dimension))

    @pytest.mark.parametrize("backend,n_workers", [
        ("serial", 2), ("thread", 3), ("process", 2),
    ])
    def test_invariant_to_backend_and_workers(self, problem, proposal,
                                              backend, n_workers):
        reference = importance_sampling_estimate(
            problem.metric, problem.spec, proposal, 4000,
            rng=11, n_workers=1, shard_size=600,
        )
        other = importance_sampling_estimate(
            problem.metric, problem.spec, proposal, 4000,
            rng=11, n_workers=n_workers, backend=backend, shard_size=600,
        )
        assert other.failure_probability == reference.failure_probability
        assert other.relative_error == reference.relative_error
        assert other.extras["n_failures"] == reference.extras["n_failures"]

    def test_estimate_close_to_exact(self, problem, proposal):
        result = importance_sampling_estimate(
            problem.metric, problem.spec, proposal, 20_000,
            rng=5, n_workers=2, backend="thread", shard_size=4096,
        )
        exact = problem.exact_failure_probability
        assert result.failure_probability == pytest.approx(exact, rel=0.2)

    def test_store_samples_concatenated_in_order(self, problem, proposal):
        sharded = importance_sampling_estimate(
            problem.metric, problem.spec, proposal, 2000,
            rng=9, n_workers=2, backend="thread", shard_size=300,
            store_samples=True,
        )
        assert sharded.extras["samples"].shape == (2000, problem.dimension)
        assert sharded.extras["failed"].shape == (2000,)
        reference = importance_sampling_estimate(
            problem.metric, problem.spec, proposal, 2000,
            rng=9, n_workers=1, shard_size=300, store_samples=True,
        )
        np.testing.assert_array_equal(
            sharded.extras["samples"], reference.extras["samples"]
        )

    def test_counts_fold_across_processes(self, problem, proposal):
        metric = CountedMetric(problem.metric, problem.dimension)
        importance_sampling_estimate(
            metric, problem.spec, proposal, 1500,
            rng=0, n_workers=2, backend="process", shard_size=500,
        )
        assert metric.count == 1500
        assert metric.calls == 3

    def test_counts_exact_on_thread_backend(self, problem, proposal):
        """Thread workers share the caller's counter; the lock keeps the
        concurrent increments exact (no lost updates)."""
        metric = CountedMetric(problem.metric, problem.dimension)
        importance_sampling_estimate(
            metric, problem.spec, proposal, 4000,
            rng=0, n_workers=4, backend="thread", shard_size=250,
        )
        assert metric.count == 4000
        assert metric.calls == 16


class TestShardedQMCSecondStage:
    """A stateful Sobol proposal must shard into disjoint sequence slices."""

    @pytest.fixture
    def base(self, problem):
        return MultivariateNormal(np.array([1.8, 0.9]), np.eye(problem.dimension))

    @pytest.mark.parametrize("backend,n_workers", [
        ("serial", 2), ("thread", 3), ("process", 2),
    ])
    def test_sharded_qmc_matches_serial(self, problem, base, backend, n_workers):
        """Shards draw [offset, offset+count) of the one scrambled sequence,
        so a 4-shard estimate equals the default one-shard run bit-exactly
        — no duplicated Sobol points on any backend."""
        serial = importance_sampling_estimate(
            problem.metric, problem.spec, QMCNormal(base, seed=21), 2048,
            rng=17,
        )
        sharded = importance_sampling_estimate(
            problem.metric, problem.spec, QMCNormal(base, seed=21), 2048,
            rng=17, n_workers=n_workers, backend=backend, shard_size=512,
        )
        assert sharded.failure_probability == serial.failure_probability
        assert sharded.relative_error == serial.relative_error
        assert sharded.extras["n_failures"] == serial.extras["n_failures"]

    def test_sharded_run_advances_parent_sequence(self, problem, base):
        """After a sharded run the proposal has consumed its points, exactly
        like a one-shard run — a follow-up draw must not replay them."""
        serial_prop = QMCNormal(base, seed=22)
        importance_sampling_estimate(
            problem.metric, problem.spec, serial_prop, 1024, rng=3,
        )
        sharded_prop = QMCNormal(base, seed=22)
        importance_sampling_estimate(
            problem.metric, problem.spec, sharded_prop, 1024,
            rng=3, n_workers=2, backend="thread", shard_size=256,
        )
        np.testing.assert_array_equal(
            sharded_prop.sample(64), serial_prop.sample(64)
        )

    def test_stateful_proposal_without_sample_shard_raises(self, problem, base):
        class StatefulProposal:
            stateful_sample = True
            dimension = base.dimension

            def sample(self, n, rng=None):
                return base.sample(n, np.random.default_rng(0))

            def logpdf(self, x):
                return base.logpdf(x)

        with pytest.raises(ValueError, match="sample_shard"):
            importance_sampling_estimate(
                problem.metric, problem.spec, StatefulProposal(), 1000,
                rng=0, n_workers=2, backend="thread", shard_size=250,
            )


class TestParallelPanels:
    def test_compare_methods_parallel_equals_serial(self, problem):
        from repro.analysis.experiments import compare_methods

        serial = compare_methods(
            problem, methods=("MNIS", "G-C"), seed=3,
            n_second_stage=500, n_gibbs=40, doe_budget=150,
        )
        parallel = compare_methods(
            problem, methods=("MNIS", "G-C"), seed=3, n_workers=2,
            backend="thread",
            n_second_stage=500, n_gibbs=40, doe_budget=150,
        )
        assert list(parallel) == list(serial)
        for name in serial:
            assert (
                parallel[name].failure_probability
                == serial[name].failure_probability
            )

    def test_run_trials_parallel_equals_serial(self, problem):
        from repro.analysis.experiments import run_trials

        kwargs = dict(n_second_stage=400, n_gibbs=30, doe_budget=100)
        serial = run_trials(problem, "G-C", 3, seed=5, **kwargs)
        parallel = run_trials(
            problem, "G-C", 3, seed=5, n_workers=2, backend="thread", **kwargs
        )
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            assert a.failure_probability == b.failure_probability

    def test_run_trials_rejects_bad_count(self, problem):
        from repro.analysis.experiments import run_trials

        with pytest.raises(ValueError, match="n_trials"):
            run_trials(problem, "G-C", 0)

    def test_sims_to_target_error_accepts_trials(self, problem):
        from repro.analysis.experiments import run_trials, sims_to_target_error

        trials = run_trials(
            problem, "MNIS", 3, seed=2,
            n_second_stage=3000, doe_budget=200,
        )
        rows = sims_to_target_error({"MNIS": trials}, target=0.5)
        row = rows["MNIS"]
        assert row["n_trials"] == 3
        assert 0 <= row["n_reached"] <= 3
        if row["second_stage"] is not None:
            assert row["total"] >= row["second_stage"]
