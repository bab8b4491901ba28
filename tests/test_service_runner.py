"""Tests for one job's execution (repro.service.runner).

The acceptance contract of the artifact cache, asserted with the suite's
own instrument (a :class:`CountedMetric` wrapped around the problem's
metric, injected through ``execute_job``'s ``problem`` override):

* a warm-cache query performs **zero** first-stage metric evaluations;
* an incremental-refinement hit evaluates exactly the missing shards and
  its merged sim counts equal the instrument's, on every backend;
* a refined result is bit-identical to a fresh run at the same total
  budget (the tagged second-stage stream + prefix-stable shard grid);
* a job cancelled mid-stage keeps its finished shards in the ledger, and
  resubmitting it replays them into the uninterrupted run's estimate.

Synthetic problems keep the metric analytic, so a full cold Gibbs job
runs in milliseconds.
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.mc.counter import CountedMetric
from repro.parallel.executor import ParallelExecutor
from repro.parallel.ledger import decode_value
from repro.service.cache import ArtifactCache
from repro.service.jobs import JobCancelled, JobRequest
from repro.service.runner import execute_job, second_stage_seed
from repro.synthetic import LinearMetric

#: Small-but-real Gibbs budgets; a cold job is a few hundred evaluations.
GIBBS_KWARGS = dict(
    problem="iread", method="G-S", seed=3,
    n_gibbs=30, doe_budget=60, n_second_stage=128, shard_size=32,
)


def _instrumented_problem():
    """A 2-D half-space problem whose metric counts every evaluation."""
    problem = LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")
    instrument = CountedMetric(problem.metric, problem.metric.dimension)
    return dataclasses.replace(problem, metric=instrument), instrument


def _job(manifest):
    return manifest["job"]


def _ledger_rows(cache, kind="*"):
    """Shard rows of the cache's ledgers of one kind, in shard order."""
    rows = []
    for path in (cache.root / "ledgers").glob(f"{kind}-*.jsonl"):
        lines = path.read_text().splitlines()[1:]
        rows += [json.loads(line) for line in lines]
    return sorted(rows, key=lambda row: row["index"])


def _ledger_weights(cache):
    """The second-stage weights the cache's IS ledger holds, in order."""
    return np.concatenate([
        decode_value(row["payload"]["weights"])
        for row in _ledger_rows(cache, "is")
    ])


class TestColdWarm:
    def test_cold_run_populates_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        problem, instrument = _instrumented_problem()
        request = JobRequest(**GIBBS_KWARGS)
        result, manifest = execute_job(request, cache=cache, problem=problem)
        job = _job(manifest)
        assert job["cache_hit"] is False and job["mode"] == "cold"
        assert result.n_second_stage == 128
        # The runner's instrument and the test's agree exactly.
        assert job["sims_run"] == instrument.count
        assert job["sims_run"] == result.n_first_stage + result.n_second_stage
        assert job["first_stage_sims"] == result.n_first_stage > 0
        assert len(cache) == 1

    def test_warm_hit_evaluates_zero_metrics(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        problem, _ = _instrumented_problem()
        request = JobRequest(**GIBBS_KWARGS)
        cold, _ = execute_job(request, cache=cache, problem=problem)

        warm_problem, instrument = _instrumented_problem()
        result, manifest = execute_job(
            request, cache=cache, problem=warm_problem
        )
        job = _job(manifest)
        assert instrument.count == 0, "warm hit must simulate nothing"
        assert job["cache_hit"] is True and job["mode"] == "cached_result"
        assert job["sims_run"] == 0 and job["first_stage_sims"] == 0
        assert job["first_stage_sims_saved"] == cold.n_first_stage
        assert result.failure_probability == cold.failure_probability

    def test_budget_is_a_floor(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        problem, _ = _instrumented_problem()
        execute_job(JobRequest(**GIBBS_KWARGS), cache=cache, problem=problem)

        smaller = JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 64})
        warm_problem, instrument = _instrumented_problem()
        result, manifest = execute_job(
            smaller, cache=cache, problem=warm_problem
        )
        assert instrument.count == 0
        assert _job(manifest)["mode"] == "cached_result"
        # The stored, larger-budget estimate is returned outright.
        assert result.n_second_stage == 128

    def test_use_cache_false_forces_cold(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        problem, _ = _instrumented_problem()
        execute_job(JobRequest(**GIBBS_KWARGS), cache=cache, problem=problem)

        forced = JobRequest(**{**GIBBS_KWARGS, "use_cache": False})
        warm_problem, instrument = _instrumented_problem()
        _, manifest = execute_job(forced, cache=cache, problem=warm_problem)
        job = _job(manifest)
        assert job["cache_hit"] is False and job["mode"] == "cold"
        assert instrument.count > 128  # paid the first stage again


class TestRefinement:
    def test_refinement_runs_only_missing_shards(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        problem, _ = _instrumented_problem()
        execute_job(JobRequest(**GIBBS_KWARGS), cache=cache, problem=problem)

        bigger = JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 256})
        warm_problem, instrument = _instrumented_problem()
        result, manifest = execute_job(
            bigger, cache=cache, problem=warm_problem
        )
        job = _job(manifest)
        assert job["mode"] == "refined"
        assert instrument.count == 256 - 128, "only the new shards simulate"
        assert job["sims_run"] == instrument.count
        assert job["first_stage_sims"] == 0
        assert result.n_second_stage == 256
        assert result.extras["first_stage_reused"] is True

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_merged_counts_equal_instrument_counts(self, tmp_path, backend):
        """Refinement accounting is exact on every backend.

        The runner's own instrument (surfaced as the manifest's
        ``sims_run``, with worker-process tallies folded home) must agree
        exactly with the number of newly merged samples.
        """
        cache = ArtifactCache(tmp_path / backend)
        problem, _ = _instrumented_problem()
        request = JobRequest(**GIBBS_KWARGS)
        execute_job(request, cache=cache, problem=problem)

        bigger = JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 256})
        warm_problem, _ = _instrumented_problem()
        executor = ParallelExecutor(n_workers=2, backend=backend)
        with executor:
            result, manifest = execute_job(
                bigger, cache=cache, executor=executor, problem=warm_problem,
            )
        job = _job(manifest)
        assert job["mode"] == "refined"
        assert job["sims_run"] == result.n_second_stage - 128 == 128
        assert job["resume"]["shards_replayed"] == 4
        assert job["resume"]["shards_executed"] == 4
        assert cache.get(job["key"]).result.n_second_stage == 256
        assert _ledger_weights(cache).size == 256

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_refined_result_is_backend_invariant(self, tmp_path, backend):
        def refine(root, executor=None):
            cache = ArtifactCache(root)
            problem, _ = _instrumented_problem()
            execute_job(
                JobRequest(**GIBBS_KWARGS), cache=cache, problem=problem,
            )
            bigger = JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 256})
            warm_problem, _ = _instrumented_problem()
            result, _ = execute_job(
                bigger, cache=cache, executor=executor, problem=warm_problem,
            )
            return result

        serial = refine(tmp_path / "serial")
        with ParallelExecutor(n_workers=2, backend=backend) as executor:
            parallel = refine(tmp_path / backend, executor)
        assert parallel.failure_probability == serial.failure_probability
        np.testing.assert_array_equal(
            parallel.trace.estimate, serial.trace.estimate
        )

    def test_refined_equals_fresh_at_same_budget(self, tmp_path):
        """Bit-identity: refine 128->256 == one fresh 256-sample run."""
        warm_cache = ArtifactCache(tmp_path / "warm")
        problem, _ = _instrumented_problem()
        execute_job(
            JobRequest(**GIBBS_KWARGS), cache=warm_cache, problem=problem,
        )
        bigger = JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 256})
        warm_problem, _ = _instrumented_problem()
        refined, _ = execute_job(
            bigger, cache=warm_cache, problem=warm_problem,
        )

        fresh_problem, _ = _instrumented_problem()
        fresh, _ = execute_job(
            bigger, cache=ArtifactCache(tmp_path / "fresh"),
            problem=fresh_problem,
        )
        assert refined.failure_probability == fresh.failure_probability
        assert refined.extras["n_failures"] == fresh.extras["n_failures"]
        np.testing.assert_array_equal(
            refined.trace.estimate, fresh.trace.estimate
        )
        np.testing.assert_array_equal(
            refined.trace.relative_error, fresh.trace.relative_error
        )

    def test_stored_weights_are_a_prefix_of_larger_runs(self, tmp_path):
        """The shard grid for N is a prefix of the grid for N' > N."""
        small_cache = ArtifactCache(tmp_path / "small")
        big_cache = ArtifactCache(tmp_path / "big")
        problem, _ = _instrumented_problem()
        request = JobRequest(**GIBBS_KWARGS)
        execute_job(request, cache=small_cache, problem=problem)
        bigger = JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 256})
        problem2, _ = _instrumented_problem()
        execute_job(bigger, cache=big_cache, problem=problem2)

        small = _ledger_weights(small_cache)
        big = _ledger_weights(big_cache)
        assert (small.size, big.size) == (128, 256)
        np.testing.assert_array_equal(big[: small.size], small)

    def test_grid_mismatch_reruns_second_stage_only(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        problem, _ = _instrumented_problem()
        execute_job(JobRequest(**GIBBS_KWARGS), cache=cache, problem=problem)

        regrid = JobRequest(**{
            **GIBBS_KWARGS, "n_second_stage": 144, "shard_size": 48,
        })
        warm_problem, instrument = _instrumented_problem()
        result, manifest = execute_job(
            regrid, cache=cache, problem=warm_problem
        )
        job = _job(manifest)
        assert job["mode"] == "second_stage_rerun"
        assert job["first_stage_sims"] == 0
        # The full (cheap) second stage reruns; the first stage never does.
        assert instrument.count == 144 == job["sims_run"]
        assert result.n_first_stage == 0
        assert result.extras["first_stage_reused"] is True

    def test_partial_trailing_shard_reruns_only_that_shard(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        problem, _ = _instrumented_problem()
        # 144 = four whole 32-sample shards plus a 16-sample tail.
        execute_job(
            JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 144}),
            cache=cache, problem=problem,
        )
        bigger = JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 256})
        warm_problem, instrument = _instrumented_problem()
        refined, manifest = execute_job(
            bigger, cache=cache, problem=warm_problem
        )
        assert _job(manifest)["mode"] == "refined"
        assert instrument.count == 256 - 4 * 32
        fresh, _ = execute_job(
            bigger, cache=ArtifactCache(tmp_path / "fresh"),
            problem=_instrumented_problem()[0],
        )
        assert refined.failure_probability == fresh.failure_probability
        np.testing.assert_array_equal(
            refined.trace.estimate, fresh.trace.estimate
        )

    def test_deleted_ledger_costs_sims_never_bits(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        problem, _ = _instrumented_problem()
        execute_job(JobRequest(**GIBBS_KWARGS), cache=cache, problem=problem)
        shutil.rmtree(tmp_path / "ledgers")

        bigger = JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 256})
        warm_problem, instrument = _instrumented_problem()
        rerun, manifest = execute_job(
            bigger, cache=cache, problem=warm_problem
        )
        job = _job(manifest)
        assert job["mode"] == "second_stage_rerun"
        assert job["first_stage_sims"] == 0
        assert instrument.count == 256 == job["sims_run"]
        fresh, _ = execute_job(
            bigger, cache=ArtifactCache(tmp_path / "fresh"),
            problem=_instrumented_problem()[0],
        )
        assert rerun.failure_probability == fresh.failure_probability
        np.testing.assert_array_equal(
            rerun.trace.relative_error, fresh.trace.relative_error
        )


class TestSecondStageStream:
    def test_tagged_stream_is_seed_deterministic(self):
        a = second_stage_seed(7).generate_state(4)
        b = second_stage_seed(7).generate_state(4)
        c = second_stage_seed(8).generate_state(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spawned_children_are_prefix_stable(self):
        few = second_stage_seed(7).spawn(2)
        many = second_stage_seed(7).spawn(5)
        for child_few, child_many in zip(few, many):
            np.testing.assert_array_equal(
                child_few.generate_state(2), child_many.generate_state(2)
            )


class TestNonGibbsMethods:
    def test_mc_job_caches_its_result(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        request = JobRequest(
            problem="iread", method="MC", seed=5,
            n_second_stage=512, shard_size=128,
        )
        problem, _ = _instrumented_problem()
        cold, cold_manifest = execute_job(
            request, cache=cache, problem=problem
        )
        assert _job(cold_manifest)["mode"] == "cold"
        assert _job(cold_manifest)["sims_run"] == cold.n_total

        warm_problem, instrument = _instrumented_problem()
        warm, manifest = execute_job(
            request, cache=cache, problem=warm_problem
        )
        job = _job(manifest)
        assert instrument.count == 0
        assert job["mode"] == "cached_result" and job["sims_run"] == 0
        assert warm.failure_probability == cold.failure_probability


class TestCancellation:
    def test_abort_before_start(self, tmp_path):
        problem, instrument = _instrumented_problem()
        with pytest.raises(JobCancelled, match="stop requested"):
            execute_job(
                JobRequest(**GIBBS_KWARGS),
                cache=ArtifactCache(tmp_path),
                problem=problem,
                should_abort=lambda: "stop requested",
            )
        assert instrument.count == 0

    def test_abort_between_stages(self, tmp_path):
        # Reference cold run: learn the first stage's exact cost.
        reference, _ = _instrumented_problem()
        cold, _ = execute_job(
            JobRequest(**GIBBS_KWARGS),
            cache=ArtifactCache(tmp_path / "ref"),
            problem=reference,
        )

        calls = {"n": 0}

        def abort_after_first_check():
            calls["n"] += 1
            return None if calls["n"] == 1 else "cancelled"

        problem, instrument = _instrumented_problem()
        with pytest.raises(JobCancelled, match="cancelled"):
            execute_job(
                JobRequest(**GIBBS_KWARGS),
                cache=ArtifactCache(tmp_path / "aborted"),
                problem=problem,
                should_abort=abort_after_first_check,
            )
        # The first stage ran to completion; the second stage never started.
        assert instrument.count == cold.n_first_stage

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("method", ["MC", "G-S"])
    def test_mid_stage_cancel_resumes_from_ledger(
        self, tmp_path, method, backend
    ):
        """Cancellation lands at a shard completion; the shards persist."""
        k = 2
        request = JobRequest(**{
            **GIBBS_KWARGS, "method": method, "n_second_stage": 256,
        })
        reference, _ = execute_job(
            request, problem=_instrumented_problem()[0]
        )
        cache = ArtifactCache(tmp_path)

        def abort_after_k_shards():
            return "cancelled" if len(_ledger_rows(cache)) >= k else None

        with ParallelExecutor(n_workers=2, backend=backend) as executor:
            with pytest.raises(JobCancelled, match="cancelled"):
                execute_job(
                    request, cache=cache, executor=executor,
                    problem=_instrumented_problem()[0],
                    should_abort=abort_after_k_shards,
                )
            assert k <= len(_ledger_rows(cache)) < 256 // 32
            assert len(cache) == 0
            resumed, manifest = execute_job(
                request, cache=cache, executor=executor,
                problem=_instrumented_problem()[0],
            )
        assert _job(manifest)["resume"]["shards_replayed"] >= k
        assert resumed.failure_probability == reference.failure_probability
        np.testing.assert_array_equal(
            resumed.trace.estimate, reference.trace.estimate
        )
        np.testing.assert_array_equal(
            resumed.trace.relative_error, reference.trace.relative_error
        )

    def test_cancelled_job_stores_nothing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        problem, _ = _instrumented_problem()
        with pytest.raises(JobCancelled):
            execute_job(
                JobRequest(**GIBBS_KWARGS), cache=cache, problem=problem,
                should_abort=lambda: "stop",
            )
        assert len(cache) == 0


class TestValidation:
    def test_invalid_request_rejected_before_simulating(self, tmp_path):
        problem, instrument = _instrumented_problem()
        with pytest.raises(ValueError, match="n_second_stage"):
            execute_job(
                JobRequest(**{**GIBBS_KWARGS, "n_second_stage": 1}),
                problem=problem,
            )
        assert instrument.count == 0

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem"):
            execute_job(JobRequest(problem="nope"))

    def test_no_cache_means_every_run_is_cold(self):
        problem, instrument = _instrumented_problem()
        request = JobRequest(**GIBBS_KWARGS)
        _, manifest = execute_job(request, cache=None, problem=problem)
        job = _job(manifest)
        assert job["cache_hit"] is False and job["cache"] is None
