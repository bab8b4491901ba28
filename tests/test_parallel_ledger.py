"""Tests for the elastic shard ledger (repro.parallel.ledger).

The contract under test: a sharded run killed at K of N shards, re-invoked
with the same inputs and a ``checkpoint_dir``, replays the K persisted
shards and executes exactly the N−K missing ones — and the merged result
is bit-identical to an uninterrupted run, on every backend.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.gibbs.two_stage import run_first_stage
from repro.mc.counter import CountedMetric
from repro.mc.importance import importance_sampling_estimate
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.parallel import (
    LEDGER_SCHEMA,
    LedgerMismatch,
    ParallelExecutor,
    ShardLedger,
    host_stamp,
    open_ledger,
    plan_shards,
)
from repro.parallel.ledger import (
    decode_value,
    encode_value,
    metric_fingerprint,
    proposal_fingerprint,
    run_digest,
    seed_key,
)
from repro.parallel.workers import MCShardResult
from repro.stats.mvnormal import MultivariateNormal
from repro.synthetic import LinearMetric

BACKENDS = ("serial", "thread", "process")


@pytest.fixture
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


def _counted(problem):
    return CountedMetric(problem.metric, problem.dimension)


def _mc(problem, metric=None, **kwargs):
    defaults = dict(
        n_samples=4000, rng=7, chunk_size=500, shard_size=500,
        n_workers=2, backend="thread",
    )
    defaults.update(kwargs)
    return brute_force_monte_carlo(
        metric if metric is not None else problem.metric,
        problem.spec,
        dimension=problem.dimension,
        **defaults,
    )


def _assert_same_estimate(a, b):
    assert a.failure_probability == b.failure_probability
    assert a.extras["n_failures"] == b.extras["n_failures"]
    np.testing.assert_array_equal(a.trace.n_samples, b.trace.n_samples)
    np.testing.assert_array_equal(a.trace.estimate, b.trace.estimate)
    np.testing.assert_array_equal(
        a.trace.relative_error, b.trace.relative_error
    )


def _truncate_ledger(path, keep_rows):
    """Keep the header plus the first ``keep_rows`` shard rows."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: 1 + keep_rows]) + "\n")


def _ledger_file(checkpoint_dir, kind="mc"):
    files = sorted(checkpoint_dir.glob(f"{kind}-*.jsonl"))
    assert len(files) == 1, files
    return files[0]


class TestEncoding:
    def test_ndarray_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        for array in (
            rng.standard_normal((7, 3)),
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.array([True, False, True]),
            np.array([], dtype=float),
            np.float32(rng.standard_normal(5)),
        ):
            decoded = decode_value(json.loads(json.dumps(encode_value(array))))
            assert decoded.dtype == array.dtype
            np.testing.assert_array_equal(decoded, array)

    def test_scalars_and_nesting(self):
        value = {
            "i": np.int64(3),
            "f": np.float64(0.25),
            "b": np.bool_(True),
            "none": None,
            "nested": [1, {"x": np.arange(3)}],
        }
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert decoded["i"] == 3 and decoded["f"] == 0.25
        assert decoded["b"] is True and decoded["none"] is None
        np.testing.assert_array_equal(decoded["nested"][1]["x"], np.arange(3))

    def test_unencodable_payload_raises(self):
        with pytest.raises(TypeError, match="shared-memory"):
            encode_value(object())

    def test_run_digest_is_order_insensitive(self):
        assert run_digest({"a": 1, "b": 2}) == run_digest({"b": 2, "a": 1})
        assert run_digest({"a": 1}) != run_digest({"a": 2})

    def test_seed_key_pins_entropy(self):
        root = np.random.SeedSequence(42)
        assert seed_key(root) == seed_key(np.random.SeedSequence(42))
        assert seed_key(root) != seed_key(np.random.SeedSequence(43))

    def test_proposal_fingerprint_distinguishes(self):
        a = MultivariateNormal.standard(2)
        b = MultivariateNormal(np.array([1.0, 0.0]), np.eye(2))
        assert proposal_fingerprint(a) == proposal_fingerprint(
            MultivariateNormal.standard(2)
        )
        assert proposal_fingerprint(a) != proposal_fingerprint(b)

    def test_host_stamp_fields(self):
        stamp = host_stamp()
        assert stamp["pid"] == os.getpid()
        assert stamp["hostname"] and stamp["cpu_count"] >= 1

    def test_metric_fingerprint_distinguishes_problems(self):
        from repro.mc.indicator import FailureSpec

        a = LinearMetric(np.array([1.0, 0.5]), 2.2)
        b = LinearMetric(np.array([1.0, -0.5]), 2.2)
        spec = FailureSpec(0.0, fail_below=True)
        assert metric_fingerprint(a, spec) == metric_fingerprint(
            LinearMetric(np.array([1.0, 0.5]), 2.2), spec
        )
        assert metric_fingerprint(a, spec) != metric_fingerprint(b, spec)
        assert metric_fingerprint(a, spec) != metric_fingerprint(
            a, FailureSpec(0.5, fail_below=True)
        )
        assert metric_fingerprint(a, spec) != metric_fingerprint(
            a, FailureSpec(0.0, fail_below=False)
        )

    def test_metric_fingerprint_unwraps_counting_wrappers(self):
        from repro.mc.indicator import FailureSpec

        metric = LinearMetric(np.array([1.0, 0.5]), 2.2)
        spec = FailureSpec(0.0)
        counted = CountedMetric(metric, metric.dimension)
        counted(np.zeros((3, 2)))  # advance the counter: must not matter
        assert metric_fingerprint(counted, spec) == metric_fingerprint(
            metric, spec
        )
        assert metric_fingerprint(
            CountedMetric(counted, metric.dimension), spec
        ) == metric_fingerprint(metric, spec)

    def test_metric_fingerprint_unpicklable_falls_back_to_name(self):
        class Unpicklable:
            dimension = 2

            def __call__(self, x):
                return x.sum(axis=1)

            def __reduce__(self):
                raise TypeError("nope")

        # Stable across instances (no repr addresses), still a valid key.
        assert metric_fingerprint(Unpicklable()) == metric_fingerprint(
            Unpicklable()
        )


def _result(index, offset=None, count=10):
    rng = np.random.default_rng(index)
    return MCShardResult(
        index=index,
        offset=index * count if offset is None else offset,
        count=count,
        n_failures=int(index),
        checkpoints=np.array([offset or index * count + count]),
        cum_failures=np.array([index], dtype=np.int64),
        n_sims=count,
        n_calls=1,
        telemetry={"counters": {"sims": count}, "spans": []},
        host=host_stamp(),
    )


class TestShardLedger:
    def test_record_and_replay_roundtrip(self, tmp_path):
        key = {"n": 20, "seed": seed_key(np.random.SeedSequence(1))}
        with open_ledger(tmp_path, "mc", key) as ledger:
            original = _result(0)
            ledger.record(original)
        reopened = open_ledger(tmp_path, "mc", key)
        shard = plan_shards(20, 10)[0]
        replayed = reopened.match(shard)
        assert isinstance(replayed, MCShardResult)
        assert replayed.n_failures == original.n_failures
        assert replayed.n_sims == original.n_sims
        np.testing.assert_array_equal(
            replayed.cum_failures, original.cum_failures
        )
        assert replayed.cum_failures.dtype == original.cum_failures.dtype
        assert reopened.match(plan_shards(20, 10)[1]) is None

    def test_grid_mismatch_never_replays(self, tmp_path):
        key = {"k": 1}
        with open_ledger(tmp_path, "mc", key) as ledger:
            ledger.record(_result(0, count=10))
        reopened = open_ledger(tmp_path, "mc", key)
        # Same index, different count: the row must not replay.
        assert reopened.match(plan_shards(30, 15)[0]) is None

    def test_header_mismatch_raises(self, tmp_path):
        path = tmp_path / "mine.jsonl"
        with ShardLedger(path, "mc", {"k": 1}) as ledger:
            ledger.record(_result(0))
        with pytest.raises(LedgerMismatch, match="different run"):
            ShardLedger(path, "mc", {"k": 2})
        with pytest.raises(LedgerMismatch):
            ShardLedger(path, "is", {"k": 1})

    def test_torn_header_line_restarts_fresh(self, tmp_path):
        """A kill mid-write of the header must not wedge resume forever."""
        key = {"k": 9}
        digest = run_digest({"ledger_kind": "mc", **key})
        path = tmp_path / f"mc-{digest[:12]}.jsonl"
        path.write_text('{"schema": "repro-led')  # torn first (only) line
        ledger = open_ledger(tmp_path, "mc", key)
        assert ledger.completed_indices == []
        assert ledger.n_dropped == 1
        ledger.record(_result(0))
        ledger.close()
        reopened = open_ledger(tmp_path, "mc", key)
        assert reopened.completed_indices == [0]

    def test_garbled_header_with_rows_still_raises(self, tmp_path):
        """A torn header can only ever be the whole file; anything with
        rows after an unreadable first line is a foreign file we must not
        truncate."""
        key = {"k": 10}
        digest = run_digest({"ledger_kind": "mc", **key})
        path = tmp_path / f"mc-{digest[:12]}.jsonl"
        path.write_text('not json\n{"index": 0}\n')
        with pytest.raises(LedgerMismatch, match="unreadable ledger header"):
            open_ledger(tmp_path, "mc", key)

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        key = {"k": 3}
        with open_ledger(tmp_path, "mc", key) as ledger:
            ledger.record(_result(0))
            ledger.record(_result(1))
        path = _ledger_file(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"index": 2, "count": 10, "payl')  # no newline
        reopened = open_ledger(tmp_path, "mc", key)
        assert reopened.completed_indices == [0, 1]
        assert reopened.n_dropped == 1

    def test_corrupt_payload_digest_is_dropped(self, tmp_path):
        key = {"k": 4}
        with open_ledger(tmp_path, "mc", key) as ledger:
            ledger.record(_result(0))
        path = _ledger_file(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"n_failures":0', '"n_failures":99')
        path.write_text("\n".join(lines) + "\n")
        reopened = open_ledger(tmp_path, "mc", key)
        assert reopened.completed_indices == []
        assert reopened.n_dropped == 1

    def test_stale_row_is_superseded(self, tmp_path):
        key = {"k": 5}
        with open_ledger(tmp_path, "mc", key) as ledger:
            ledger.record(_result(1, offset=10, count=4))  # stale partial
        with open_ledger(tmp_path, "mc", key) as ledger:
            assert ledger.match(plan_shards(20, 10)[1]) is None
            ledger.record(_result(1, offset=10, count=10))
        reopened = open_ledger(tmp_path, "mc", key)
        replayed = reopened.match(plan_shards(20, 10)[1])
        assert replayed is not None and replayed.count == 10

    def test_resume_false_truncates(self, tmp_path):
        key = {"k": 6}
        with open_ledger(tmp_path, "mc", key) as ledger:
            ledger.record(_result(0))
        reopened = open_ledger(tmp_path, "mc", key, resume=False)
        assert reopened.completed_indices == []

    def test_filename_carries_kind_and_digest(self, tmp_path):
        key = {"k": 7}
        with open_ledger(tmp_path, "mc", key) as ledger:
            ledger.record(_result(0))
        name = _ledger_file(tmp_path).name
        digest = run_digest({"ledger_kind": "mc", **key})
        assert name == f"mc-{digest[:12]}.jsonl"
        header = json.loads(_ledger_file(tmp_path).read_text().splitlines()[0])
        assert header["schema"] == LEDGER_SCHEMA
        assert header["digest"] == digest

    def test_rows_carry_host_stamp(self, tmp_path):
        with open_ledger(tmp_path, "mc", {"k": 8}) as ledger:
            ledger.record(_result(0))
        row = json.loads(_ledger_file(tmp_path).read_text().splitlines()[1])
        assert row["host"]["hostname"] == host_stamp()["hostname"]
        assert row["host"]["cpu_count"] >= 1

    def test_unknown_kind_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown ledger kind"):
            ShardLedger(tmp_path / "x.jsonl", "nope", {})


class TestMonteCarloResume:
    def test_checkpointed_run_matches_plain(self, problem, tmp_path):
        reference = _mc(problem)
        checked = _mc(problem, checkpoint_dir=tmp_path)
        _assert_same_estimate(reference, checked)
        resume = checked.extras["resume"]
        assert resume["shards_replayed"] == 0
        assert resume["shards_executed"] == resume["shards_total"] == 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partial_ledger_resumes_missing_shards_only(
        self, problem, tmp_path, backend
    ):
        reference = _mc(problem)
        _mc(problem, checkpoint_dir=tmp_path)
        _truncate_ledger(_ledger_file(tmp_path), keep_rows=3)

        counted = _counted(problem)
        resumed = _mc(
            problem, metric=counted, checkpoint_dir=tmp_path, backend=backend
        )
        _assert_same_estimate(reference, resumed)
        resume = resumed.extras["resume"]
        assert resume["shards_replayed"] == 3
        assert resume["shards_executed"] == 5
        assert resume["sims_replayed"] == 3 * 500
        assert resume["sims_executed"] == 5 * 500
        # The exact contract: only the missing shards were simulated.
        assert counted.count == 5 * 500

    def test_complete_ledger_runs_zero_simulations(self, problem, tmp_path):
        full = _mc(problem, checkpoint_dir=tmp_path)
        counted = _counted(problem)
        resumed = _mc(problem, metric=counted, checkpoint_dir=tmp_path)
        _assert_same_estimate(full, resumed)
        assert counted.count == 0
        assert resumed.extras["resume"]["shards_replayed"] == 8

    def test_no_resume_reruns_everything(self, problem, tmp_path):
        _mc(problem, checkpoint_dir=tmp_path)
        counted = _counted(problem)
        _mc(problem, metric=counted, checkpoint_dir=tmp_path, resume=False)
        assert counted.count == 4000

    def test_different_seed_gets_its_own_ledger(self, problem, tmp_path):
        _mc(problem, checkpoint_dir=tmp_path, rng=7)
        _mc(problem, checkpoint_dir=tmp_path, rng=8)
        assert len(list(tmp_path.glob("mc-*.jsonl"))) == 2

    def test_different_problem_never_replays(self, problem, tmp_path):
        """Same dimension, seed and grid, different problem: the second
        run must key its own ledger instead of silently replaying the
        first problem's shards as its estimate."""
        _mc(problem, checkpoint_dir=tmp_path)
        other = LinearMetric(np.array([1.0, -0.5]), 2.2).problem("flipped")
        counted = _counted(other)
        result = _mc(other, metric=counted, checkpoint_dir=tmp_path)
        assert counted.count == 4000  # nothing replayed across problems
        assert result.extras["resume"]["shards_replayed"] == 0
        assert len(list(tmp_path.glob("mc-*.jsonl"))) == 2

    def test_different_spec_never_replays(self, problem, tmp_path):
        from repro.mc.indicator import FailureSpec

        _mc(problem, checkpoint_dir=tmp_path)
        counted = _counted(problem)
        brute_force_monte_carlo(
            counted, FailureSpec(-0.5), 4000,
            dimension=problem.dimension, rng=7, chunk_size=500,
            shard_size=500, n_workers=2, backend="thread",
            checkpoint_dir=tmp_path,
        )
        assert counted.count == 4000
        assert len(list(tmp_path.glob("mc-*.jsonl"))) == 2

    def test_default_path_resumes_from_truncated_ledger(
        self, problem, tmp_path
    ):
        """``n_workers=None`` runs the same grid inline, ledger included."""
        reference = _mc(problem)
        _mc(problem, checkpoint_dir=tmp_path, n_workers=None)
        _truncate_ledger(_ledger_file(tmp_path), keep_rows=3)
        counted = _counted(problem)
        resumed = _mc(
            problem, metric=counted, checkpoint_dir=tmp_path, n_workers=None
        )
        _assert_same_estimate(reference, resumed)
        assert resumed.extras["resume"]["shards_replayed"] == 3
        assert counted.count == 5 * 500

    def test_worker_hosts_recorded(self, problem, tmp_path):
        result = _mc(problem, checkpoint_dir=tmp_path)
        hosts = result.extras["worker_hosts"]
        assert hosts and sum(h["n_shards"] for h in hosts) == 8
        assert all(h["hostname"] for h in hosts)


class TestImportanceSamplingResume:
    def _estimate(self, problem, metric, tmp_path=None, n_samples=1200, **kw):
        proposal = MultivariateNormal(np.array([2.0, 1.0]), np.eye(2))
        return importance_sampling_estimate(
            metric, problem.spec, proposal, n_samples,
            rng=5, n_workers=2, backend="thread", shard_size=300,
            checkpoint_dir=tmp_path, **kw,
        )

    def test_complete_ledger_replays_all(self, problem, tmp_path):
        reference = self._estimate(problem, _counted(problem))
        self._estimate(problem, _counted(problem), tmp_path)
        counted = _counted(problem)
        resumed = self._estimate(problem, counted, tmp_path)
        assert counted.count == 0
        assert resumed.failure_probability == reference.failure_probability
        np.testing.assert_array_equal(
            resumed.trace.estimate, reference.trace.estimate
        )
        assert resumed.extras["resume"]["shards_replayed"] == 4

    def test_budget_extension_replays_prefix(self, problem, tmp_path):
        """The IS key omits n_samples: a larger budget extends the ledger."""
        self._estimate(problem, _counted(problem), tmp_path, n_samples=1200)
        counted = _counted(problem)
        extended = self._estimate(
            problem, counted, tmp_path, n_samples=2400
        )
        reference = self._estimate(problem, _counted(problem), n_samples=2400)
        assert counted.count == 1200  # only the 4 new shards
        assert extended.failure_probability == reference.failure_probability
        assert len(list(tmp_path.glob("is-*.jsonl"))) == 1

    def test_default_path_resumes_from_truncated_ledger(
        self, problem, tmp_path
    ):
        """``n_workers=None`` runs the same grid inline, ledger included."""
        proposal = MultivariateNormal(np.array([2.0, 1.0]), np.eye(2))

        def estimate(metric, checkpoint_dir=None):
            return importance_sampling_estimate(
                metric, problem.spec, proposal, 1200, rng=5, shard_size=300,
                checkpoint_dir=checkpoint_dir,
            )

        reference = self._estimate(problem, _counted(problem))
        estimate(_counted(problem), tmp_path)
        _truncate_ledger(_ledger_file(tmp_path, "is"), keep_rows=1)
        counted = _counted(problem)
        resumed = estimate(counted, tmp_path)
        assert resumed.failure_probability == reference.failure_probability
        np.testing.assert_array_equal(
            resumed.trace.estimate, reference.trace.estimate
        )
        assert resumed.extras["resume"]["shards_replayed"] == 1
        assert counted.count == 3 * 300


class TestFirstStageResume:
    def test_complete_ledger_replays_chains(self, problem, tmp_path):
        starts = np.array([[3.0, 1.0], [2.5, 2.0], [3.5, 0.5], [3.0, 1.5]])
        kwargs = dict(
            coordinate_system="cartesian", seed=13, chain_group_size=1,
        )
        with ParallelExecutor(n_workers=2, backend="thread") as executor:
            reference = run_first_stage(
                problem.metric, problem.spec, starts, 10, executor, **kwargs
            )
            run_first_stage(
                problem.metric, problem.spec, starts, 10, executor,
                checkpoint_dir=tmp_path, **kwargs
            )
            counted = _counted(problem)
            resumed = run_first_stage(
                counted, problem.spec, starts, 10, executor,
                checkpoint_dir=tmp_path, **kwargs
            )
        assert counted.count == 0
        np.testing.assert_array_equal(resumed.samples, reference.samples)
        np.testing.assert_array_equal(
            resumed.per_chain_simulations, reference.per_chain_simulations
        )
        np.testing.assert_array_equal(
            resumed.interval_widths, reference.interval_widths
        )

    def test_partial_ledger_runs_missing_groups(self, problem, tmp_path):
        starts = np.array([[3.0, 1.0], [2.5, 2.0], [3.5, 0.5], [3.0, 1.5]])
        kwargs = dict(
            coordinate_system="cartesian", seed=13, chain_group_size=1,
        )
        with ParallelExecutor(n_workers=2, backend="thread") as executor:
            reference = run_first_stage(
                problem.metric, problem.spec, starts, 10, executor, **kwargs
            )
            run_first_stage(
                problem.metric, problem.spec, starts, 10, executor,
                checkpoint_dir=tmp_path, **kwargs
            )
            _truncate_ledger(_ledger_file(tmp_path, "gibbs"), keep_rows=2)
            counted = _counted(problem)
            resumed = run_first_stage(
                counted, problem.spec, starts, 10, executor,
                checkpoint_dir=tmp_path, **kwargs
            )
        # Exactly the two missing chain groups re-ran.
        expected = int(reference.per_chain_simulations[2:].sum())
        assert counted.count == expected
        np.testing.assert_array_equal(resumed.samples, reference.samples)

    def test_different_starts_get_their_own_ledger(self, problem, tmp_path):
        kwargs = dict(
            coordinate_system="cartesian", seed=13, chain_group_size=1,
        )
        with ParallelExecutor(n_workers=2, backend="thread") as executor:
            run_first_stage(
                problem.metric, problem.spec,
                np.array([[3.0, 1.0], [2.5, 2.0]]), 5, executor,
                checkpoint_dir=tmp_path, **kwargs
            )
            run_first_stage(
                problem.metric, problem.spec,
                np.array([[3.5, 0.5], [3.0, 1.5]]), 5, executor,
                checkpoint_dir=tmp_path, **kwargs
            )
        assert len(list(tmp_path.glob("gibbs-*.jsonl"))) == 2


_KILL_SCRIPT = textwrap.dedent("""
    import sys, time
    import numpy as np
    from repro.mc.montecarlo import brute_force_monte_carlo
    from repro.synthetic import LinearMetric

    problem = LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")

    class SlowMetric:
        # Wrappers that leave the numbers alone expose the wrapped
        # callable as `.metric` so the ledger fingerprint unwraps them
        # (same convention as CountedMetric) and the resumed run — which
        # uses the bare metric — keys the same ledger.
        dimension = 2
        metric = problem.metric
        def __call__(self, x):
            time.sleep(0.05)
            return problem.metric(x)

    brute_force_monte_carlo(
        SlowMetric(), problem.spec, 20000, dimension=2, rng=7,
        chunk_size=500, shard_size=500, n_workers=2, backend="thread",
        checkpoint_dir=sys.argv[1],
    )
""")


class TestKillResume:
    def test_sigkilled_run_resumes_bit_identically(self, problem, tmp_path):
        """SIGKILL a checkpointed golden MC mid-run; resume pays only the rest."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(tmp_path)],
            env=env, cwd=os.getcwd(),
        )
        try:
            deadline = time.monotonic() + 60
            path = None
            while time.monotonic() < deadline:
                files = list(tmp_path.glob("mc-*.jsonl"))
                if files:
                    path = files[0]
                    rows = len(path.read_text().splitlines()) - 1
                    if rows >= 4:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("checkpointed subprocess never wrote 4 shards")
        finally:
            proc.kill()  # SIGKILL: no cleanup, no atexit, no flush
            proc.wait()

        counted = _counted(problem)
        resumed = _mc(
            problem, metric=counted, n_samples=20000,
            checkpoint_dir=tmp_path,
        )
        resume = resumed.extras["resume"]
        assert resume["shards_replayed"] >= 4
        assert (
            resume["shards_replayed"] + resume["shards_executed"]
            == resume["shards_total"] == 40
        )
        assert counted.count == 500 * resume["shards_executed"]
        reference = _mc(problem, n_samples=20000)
        _assert_same_estimate(reference, resumed)


class TestServiceResume:
    def test_job_resumes_from_ledger_dir(self, tmp_path):
        from repro.service.cache import ArtifactCache
        from repro.service.jobs import JobRequest
        from repro.service.runner import execute_job

        # use_cache=False skips the stored result, never the ledgers.
        request = JobRequest(
            problem="iread", method="MC", seed=4,
            n_second_stage=2000, shard_size=500, use_cache=False,
        )
        _, first = execute_job(request, cache=ArtifactCache(tmp_path))
        assert first["job"]["resume"]["shards_recorded"] == 4
        assert list((tmp_path / "ledgers").glob("mc-*.jsonl"))
        result, manifest = execute_job(request, cache=ArtifactCache(tmp_path))
        record = manifest["job"]["resume"]
        assert record["shards_replayed"] == 4
        assert manifest["job"]["sims_run"] == 0

    def test_gibbs_job_second_stage_resumes(self, tmp_path):
        from repro.service.cache import ArtifactCache
        from repro.service.jobs import JobRequest
        from repro.service.runner import execute_job

        request = JobRequest(
            problem="iread", method="G-S", seed=4, n_gibbs=40,
            n_second_stage=1000, shard_size=250, use_cache=False,
        )
        reference, _ = execute_job(request)
        _, first = execute_job(request, cache=ArtifactCache(tmp_path))
        resumed, manifest = execute_job(request, cache=ArtifactCache(tmp_path))
        assert (
            resumed.failure_probability == reference.failure_probability
        )
        assert manifest["job"]["resume"]["shards_replayed"] == 4
        # Second-stage sims were all replayed; only the (uncached)
        # first stage re-ran.
        assert manifest["job"]["sims_run"] == first["job"]["sims_run"] - 1000
