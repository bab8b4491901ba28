"""Tests for the run-wide telemetry subsystem (repro.telemetry).

Three properties carry the subsystem:

* **strict additivity** — the parallel layer's bit-identity contract holds
  with tracing on and off, on every backend;
* **exact attribution** — after the merge-time fold, the recorder's
  ``metric.sims`` total equals ``CountedMetric.count`` on every backend,
  and worker spans keep their worker pids;
* **zero-cost disable** — with no recorder active, instrumented sites are
  no-ops and a run records nothing.
"""

import json
import logging

import numpy as np
import pytest

from repro import telemetry
from repro.gibbs.two_stage import gibbs_importance_sampling
from repro.mc.counter import CountedMetric
from repro.mc.importance import importance_sampling_estimate
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.parallel import ParallelExecutor
from repro.stats.mvnormal import MultivariateNormal
from repro.synthetic import LinearMetric
from repro.telemetry import clock as telemetry_clock
from repro.telemetry import context as telemetry_context
from repro.telemetry import logs as telemetry_logs

BACKENDS = ("serial", "thread", "process")


@pytest.fixture
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test must leave the process-local recorder slot empty."""
    yield
    assert telemetry_context.get_active() is None


def _fake_timer(step=1.0):
    state = {"t": 0.0}

    def timer():
        state["t"] += step
        return state["t"]

    return timer


class TestRecorder:
    def test_counters_gauges_histograms(self):
        rec = telemetry.Recorder("t")
        rec.count("sims", 5)
        rec.count("sims", 3)
        rec.gauge("workers", 4)
        rec.gauge("workers", 8)
        rec.observe("latency", 2.0)
        rec.observe("latency", 4.0)
        assert rec.counters["sims"] == 8
        assert rec.gauges["workers"] == 8
        assert rec.histograms["latency"] == [2, 6.0, 2.0, 4.0]

    def test_span_records_wall_time_and_counters(self):
        rec = telemetry.Recorder("t", timer=_fake_timer())
        with rec.span("stage", kind="demo") as sp:
            sp.add("sims", 100)
        (event,) = rec.spans
        assert event["name"] == "stage"
        assert event["attrs"] == {"kind": "demo"}
        assert event["counters"] == {"sims": 100}
        assert event["dur"] == pytest.approx(1.0)
        assert event["pid"] > 0 and event["tid"] > 0

    def test_fresh_recorder_is_empty(self):
        assert telemetry.Recorder("t").n_events == 0

    def test_fold_merges_worker_record(self):
        parent = telemetry.Recorder("parent")
        parent.count("sims", 10)
        parent.observe("w", 1.0)
        worker = telemetry.Recorder("worker")
        worker.count("sims", 7)
        worker.observe("w", 5.0)
        with worker.span("shard"):
            pass
        parent.fold(worker.to_record())
        assert parent.counters["sims"] == 17
        assert parent.histograms["w"] == [2, 6.0, 1.0, 5.0]
        assert len(parent.spans) == 1

    def test_summary_lists_spans_and_counters(self):
        rec = telemetry.Recorder("t", timer=_fake_timer())
        with rec.span("stage") as sp:
            sp.add("sims", 12)
        rec.count("metric.sims", 12)
        text = rec.summary()
        assert "stage" in text
        assert "sims=12" in text
        assert "metric.sims" in text

    def test_to_record_is_picklable_snapshot(self):
        import pickle

        rec = telemetry.Recorder("t")
        rec.count("a", 1)
        record = rec.to_record()
        assert pickle.loads(pickle.dumps(record)) == record


class TestActiveRecorderFastPath:
    def test_disabled_helpers_are_noops(self):
        assert telemetry.get_active() is None
        assert not telemetry.enabled()
        assert telemetry.span("x") is telemetry.NULL_SPAN
        telemetry.count("x")
        telemetry.gauge("x", 1)
        telemetry.observe("x", 1)
        with telemetry.span("x") as sp:
            sp.add("y")

    def test_activate_scopes_the_recorder(self):
        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            assert telemetry.get_active() is rec
            telemetry.count("sims", 2)
        assert telemetry.get_active() is None
        assert rec.counters["sims"] == 2

    def test_ship_to_workers_requires_active_and_cross_process(self):
        process = ParallelExecutor(n_workers=2, backend="process")
        thread = ParallelExecutor(n_workers=2, backend="thread")
        assert not telemetry.ship_to_workers(process)  # nothing active
        with telemetry.activate(telemetry.Recorder("t")):
            assert telemetry.ship_to_workers(process)
            assert not telemetry.ship_to_workers(thread)
            assert not telemetry.ship_to_workers(
                ParallelExecutor(n_workers=1, backend="process")
            )

    def test_shard_telemetry_disabled_records_nothing(self):
        shard = telemetry.ShardTelemetry(False, "s")
        with shard:
            assert telemetry.get_active() is None
        assert shard.record() is None

    def test_shard_telemetry_installs_fresh_recorder(self):
        stale = telemetry.Recorder("stale")  # plays the forked dead copy
        with telemetry.activate(stale):
            shard = telemetry.ShardTelemetry(True, "s")
            with shard:
                assert telemetry.get_active() is not stale
                # Only the record ships home: no live view is built.
                assert telemetry.get_active().status()["snapshot"] is None
                telemetry.count("sims", 3)
            assert telemetry.get_active() is stale
        assert shard.record()["counters"] == {"sims": 3}
        assert stale.counters == {}

    def test_fold_shard_records_skips_missing(self):
        class R:
            telemetry = None

        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            telemetry.fold_shard_records([R(), object()])
        # Missing/None records are skipped, never fatal, and each skip is
        # visible as a counter (ledger rows replayed from telemetry-off
        # runs land here).
        assert rec.counters == {"telemetry.folds_skipped": 2}
        assert rec.spans == []

    def test_fold_shard_records_tolerates_malformed(self):
        class R:
            telemetry = {"counters": "not-a-dict", "spans": 7}

        class OK:
            telemetry = {"counters": {"sims": 2}, "spans": []}

        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            telemetry.fold_shard_records([R(), OK()])
        assert rec.counters.get("sims") == 2
        assert rec.counters.get("telemetry.folds_skipped") == 1

    def test_fold_replayed_records_prefixes_counters(self):
        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            telemetry.fold_replayed_records([
                {"counters": {"sims": 5}},
                {"counters": {"sims": 3, "failures": 1}},
                None,  # telemetry-off row: ignored
            ])
        # Replayed work never inflates this run's own counters.
        assert "sims" not in rec.counters
        assert rec.counters["replayed.sims"] == 8
        assert rec.counters["replayed.failures"] == 1
        assert rec.counters["ledger.snapshots_folded"] == 2


class TestSharedClock:
    def test_use_timer_affects_spans(self):
        with telemetry_clock.use_timer(_fake_timer(0.5)):
            rec = telemetry.Recorder("t")
            with rec.span("s"):
                pass
        # Fake clock ticks 0.5 s per read: the span measures one tick.
        assert rec.spans[0]["dur"] == pytest.approx(0.5)

    def test_set_timer_restores_default(self):
        fake = _fake_timer()
        previous = telemetry_clock.set_timer(fake)
        try:
            assert telemetry_clock.get_timer() is fake
        finally:
            telemetry_clock.set_timer(previous)
        assert telemetry_clock.get_timer() is previous


class TestCountedMetricSnapshot:
    def test_snapshot_returns_consistent_triple(self, problem):
        counted = CountedMetric(problem.metric, problem.dimension)
        counted(np.zeros((5, problem.dimension)))
        counted.add_external(7, calls=2)
        assert counted.snapshot() == (12, 3, 7)

    def test_call_mirrors_into_active_recorder(self, problem):
        counted = CountedMetric(problem.metric, problem.dimension)
        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            counted(np.zeros((4, problem.dimension)))
        assert rec.counters["metric.sims"] == 4
        assert rec.counters["metric.calls"] == 1
        assert counted.count == 4


def _traced_gibbs(problem, n_workers, backend, trace):
    counted = CountedMetric(problem.metric, problem.dimension)
    kwargs = dict(
        coordinate_system="spherical", n_gibbs=10, n_chains=4,
        n_second_stage=300, rng=11, n_workers=n_workers, backend=backend,
    )
    if not trace:
        return gibbs_importance_sampling(counted, problem.spec, **kwargs), \
            None, counted
    rec = telemetry.Recorder("t")
    with telemetry.activate(rec):
        result = gibbs_importance_sampling(counted, problem.spec, **kwargs)
    return result, rec, counted


class TestAdditivity:
    """Tracing can never change results: the bit-identity battery re-run."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_bit_identity_with_tracing_on(self, problem, backend, n_workers):
        plain, _, c_plain = _traced_gibbs(problem, n_workers, backend, False)
        traced, rec, c_traced = _traced_gibbs(problem, n_workers, backend, True)
        assert plain.failure_probability == traced.failure_probability
        assert plain.n_first_stage == traced.n_first_stage
        np.testing.assert_array_equal(
            plain.extras["chain"].samples, traced.extras["chain"].samples
        )
        assert c_plain.count == c_traced.count
        assert rec.n_events > 0

    def test_mc_bit_identity_with_tracing_on(self, problem):
        ref = brute_force_monte_carlo(
            problem.metric, problem.spec, 2000,
            dimension=problem.dimension, rng=3, n_workers=2, shard_size=512,
        )
        with telemetry.activate(telemetry.Recorder("t")):
            traced = brute_force_monte_carlo(
                problem.metric, problem.spec, 2000,
                dimension=problem.dimension, rng=3, n_workers=2,
                shard_size=512,
            )
        assert ref.failure_probability == traced.failure_probability


class TestFoldExactness:
    """Parent totals after the fold equal the instrument's, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metric_sims_equal_counted_metric(self, problem, backend):
        _, rec, counted = _traced_gibbs(problem, 2, backend, True)
        assert rec.counters["metric.sims"] == counted.count
        assert rec.counters["metric.calls"] == counted.calls

    def test_worker_spans_carry_worker_pids(self, problem):
        _, rec, _ = _traced_gibbs(problem, 2, "process", True)
        shard_spans = [e for e in rec.spans if e["name"].startswith("shard.")]
        assert shard_spans
        assert all(e["pid"] != rec.pid for e in shard_spans)
        parent_spans = [e for e in rec.spans if e["name"] == "second_stage"]
        assert all(e["pid"] == rec.pid for e in parent_spans)

    def test_shard_span_sims_sum_to_stage_totals(self, problem, tmp_path):
        _, rec, _ = _traced_gibbs(problem, 2, "process", True)
        is_spans = [e for e in rec.spans if e["name"] == "shard.is"]
        total = sum(e["counters"]["sims"] for e in is_spans)
        (stage,) = [e for e in rec.spans if e["name"] == "second_stage"]
        assert total == stage["counters"]["sims"] == 300

        # A resumed run whose ledger holds half the shards charges the
        # stage only the shards it executed.
        proposal = MultivariateNormal(np.array([2.0, 1.0]), 0.25 * np.eye(2))

        def second_stage(n_samples):
            return importance_sampling_estimate(
                problem.metric, problem.spec, proposal, n_samples, rng=5,
                shard_size=100, n_workers=2, backend="process",
                checkpoint_dir=tmp_path,
            )

        second_stage(200)
        rec = telemetry.Recorder("resumed")
        with telemetry.activate(rec):
            resumed = second_stage(400)
        resume = resumed.extras["resume"]
        assert resume["shards_replayed"] == 2
        is_spans = [e for e in rec.spans if e["name"] == "shard.is"]
        assert len(is_spans) == 2
        total = sum(e["counters"]["sims"] for e in is_spans)
        (stage,) = [e for e in rec.spans if e["name"] == "second_stage"]
        assert stage["counters"]["sims"] == total == resume["sims_executed"]
        assert total == 200

    def test_resumed_mc_span_counts_executed_sims(self, problem, tmp_path):
        def golden(**kwargs):
            return brute_force_monte_carlo(
                problem.metric, problem.spec, 4000, dimension=2, rng=5,
                shard_size=1000, checkpoint_dir=tmp_path, **kwargs,
            )

        golden()
        (path,) = tmp_path.glob("mc-*.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")  # header + 2 rows
        rec = telemetry.Recorder("resumed")
        with telemetry.activate(rec):
            resumed = golden(n_workers=2, backend="process")
        mc_spans = [e for e in rec.spans if e["name"] == "shard.mc"]
        total = sum(e["counters"]["sims"] for e in mc_spans)
        (stage,) = [e for e in rec.spans if e["name"] == "mc.run"]
        assert stage["counters"]["sims"] == total == 2000
        assert total == resumed.extras["resume"]["sims_executed"]

    def test_disabled_run_records_nothing(self, problem):
        rec = telemetry.Recorder("witness")
        _traced_gibbs(problem, 2, "process", False)
        assert rec.n_events == 0
        assert telemetry.get_active() is None


class TestPerfbenchNameContract:
    """The library's spans and counters are the ones perfbench reads.

    The benchmark opens its own spans around the layers below the
    library's stage boundaries (``perfbench/instrument.py``); a library
    span of the same name would double its per-layer counts, and a
    renamed span or counter would silently zero one.
    """

    #: Spans only perfbench's wrappers may open.
    BENCH_ONLY = (
        "gibbs.start_point", "gibbs.chain", "bisect.search",
        "stats.proposal_fit", "mc.is_weights", "service.cache_get",
        "service.cache_put",
    )
    SPANS = (
        "gibbs.first_stage", "second_stage", "mc.run", "merge.mc_shards",
        "merge.chain_shards", "ledger.record", "parallel.map",
        "service.job",
    )
    COUNTERS = (
        "newton.lane_solves", "newton.lane_iters", "bisect.searches",
        "bisect.rounds", "bisect.sims", "ledger.shards_recorded",
        "service.cache.hits", "service.cache.misses",
    )

    def test_traced_runs_open_the_names_perfbench_reads(
        self, problem, tmp_path
    ):
        from repro.service import JobRequest
        from repro.service.cache import ArtifactCache
        from repro.service.runner import execute_job
        from repro.sram.problems import read_noise_margin_problem

        rnm = read_noise_margin_problem()

        def golden():
            return brute_force_monte_carlo(
                problem.metric, problem.spec, 2000, dimension=2, rng=5,
                shard_size=500, checkpoint_dir=tmp_path / "mc",
                n_workers=2, backend="process",
            )

        golden()
        (path,) = (tmp_path / "mc").glob("mc-*.jsonl")
        path.write_text("\n".join(path.read_text().splitlines()[:3]) + "\n")
        job = JobRequest(
            problem="iread", method="MC", seed=1, n_second_stage=512,
            shard_size=256,
        )
        cache = ArtifactCache(tmp_path / "cache")
        rec = telemetry.Recorder("contract")
        with telemetry.activate(rec):
            gibbs_importance_sampling(
                rnm.metric, rnm.spec, coordinate_system="spherical",
                n_gibbs=4, n_chains=2, doe_budget=200, n_second_stage=256,
                shard_size=128, rng=3, n_workers=2, backend="process",
                checkpoint_dir=tmp_path / "gs",
            )
            assert golden().extras["resume"]["shards_replayed"] == 2
            for job_id in ("cold", "warm"):
                execute_job(job, cache=cache, job_id=job_id)

        names = {event["name"] for event in rec.spans}
        assert not [
            name for name in names
            if name.startswith("sram.") or name in self.BENCH_ONLY
        ]
        assert set(self.SPANS) <= names
        assert any(name.startswith("shard.") for name in names)
        maps = [e for e in rec.spans if e["name"] == "parallel.map"]
        assert all({"fn", "workers"} <= set(e["attrs"]) for e in maps)
        assert {"run_gibbs_shard", "run_is_shard", "run_mc_shard"} <= {
            e["attrs"]["fn"] for e in maps
        }
        jobs = [e for e in rec.spans if e["name"] == "service.job"]
        assert [e["attrs"]["job"] for e in jobs] == ["cold", "warm"]
        for name in self.COUNTERS:
            assert rec.counters.get(name, 0) > 0, name


class TestExport:
    def _recorder(self):
        rec = telemetry.Recorder("t", timer=_fake_timer())
        with rec.span("stage", kind="demo") as sp:
            sp.add("sims", 9)
        rec.count("metric.sims", 9)
        rec.gauge("workers", 2)
        rec.observe("h", 1.5)
        rec.meta["manifest"] = telemetry.build_manifest(
            command="test", problem="synthetic", seed=1
        )
        return rec

    def test_jsonl_round_trip(self, tmp_path):
        rec = self._recorder()
        path = tmp_path / "events.jsonl"
        telemetry.write_jsonl(rec, path)
        events = telemetry.read_jsonl(path)
        header = events[0]
        assert header["type"] == "header"
        assert header["schema"] == telemetry.JSONL_SCHEMA
        by_type = {e["type"] for e in events}
        assert {"manifest", "span", "counters", "gauges", "histograms"} <= by_type
        (span,) = [e for e in events if e["type"] == "span"]
        assert span["name"] == "stage"
        assert span["counters"] == {"sims": 9}
        (counters,) = [e for e in events if e["type"] == "counters"]
        assert counters["values"] == {"metric.sims": 9}

    def test_chrome_trace_schema(self, tmp_path):
        rec = self._recorder()
        path = tmp_path / "trace.json"
        telemetry.write_chrome_trace(rec, path)
        payload = json.loads(path.read_text())
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] >= 0.0
        assert event["dur"] == pytest.approx(1e6)
        assert event["args"]["sims"] == 9
        assert payload["otherData"]["manifest"]["problem"] == "synthetic"

    def test_manifest_contents(self):
        manifest = telemetry.build_manifest(
            command="estimate", problem="rnm", method="G-S", seed=7,
            n_workers=4, backend="process", argv=["estimate"],
        )
        assert manifest["workers"] == {"n_workers": 4, "backend": "process"}
        assert manifest["versions"]["repro"]
        assert manifest["versions"]["python"]
        assert manifest["timestamp"] > 0


class TestStructuredLogging:
    def _capture(self, json_mode=False):
        import io

        stream = io.StringIO()
        telemetry_logs.configure_cli_logging(
            json_mode=json_mode, stream=stream
        )
        return stream

    def teardown_method(self, method):
        # Leave the logger unconfigured so pytest's own handlers are clean.
        logger = telemetry_logs.get_logger()
        for handler in list(logger.handlers):
            logger.removeHandler(handler)

    def test_levels_render_prefixes(self):
        stream = self._capture()
        telemetry_logs.info("plain line")
        telemetry_logs.warning("careful")
        telemetry_logs.error("broken")
        lines = stream.getvalue().splitlines()
        assert lines == ["plain line", "note: careful", "error: broken"]

    def test_fields_render_as_key_value(self):
        stream = self._capture()
        telemetry_logs.info("written", path="/tmp/x")
        assert stream.getvalue().strip() == "written path=/tmp/x"

    def test_json_mode_emits_parseable_lines(self):
        stream = self._capture(json_mode=True)
        telemetry_logs.info("written", path="/tmp/x")
        payload = json.loads(stream.getvalue())
        assert payload["msg"] == "written"
        assert payload["level"] == "info"
        assert payload["path"] == "/tmp/x"

    def test_logger_does_not_propagate(self):
        self._capture()
        assert telemetry_logs.get_logger().propagate is False


class TestCliTelemetry:
    def test_trace_flags_write_files(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        code = main([
            "estimate", "--problem", "iread", "--method", "MC",
            "--n-second", "2000", "--seed", "4", "--workers", "2",
            "--trace", str(trace), "--trace-events", str(events),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "MC: P_f" in captured.out
        assert "trace" in captured.err
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "mc.run" in names and "shard.mc" in names
        manifest = payload["otherData"]["manifest"]
        assert manifest["problem"] == "iread" and manifest["seed"] == 4
        assert payload["otherData"]["counters"]["metric.sims"] == 2000
        parsed = telemetry.read_jsonl(events)
        assert parsed[0]["schema"] == telemetry.JSONL_SCHEMA

    def test_untraced_run_keeps_stdout_clean_and_records_nothing(
        self, capsys
    ):
        from repro.cli import main

        code = main([
            "estimate", "--problem", "iread", "--method", "MC",
            "--n-second", "1000", "--seed", "4",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "MC: P_f" in captured.out
        assert "problem:" not in captured.out  # diagnostics live on stderr
        assert "problem:" in captured.err
        assert telemetry.get_active() is None

    def test_log_json_mode(self, capsys):
        from repro.cli import main

        code = main([
            "estimate", "--problem", "iread", "--method", "MC",
            "--n-second", "1000", "--seed", "4", "--log-json",
        ])
        assert code == 0
        captured = capsys.readouterr()
        for line in captured.err.strip().splitlines():
            assert json.loads(line)["level"]
        assert "MC: P_f" in captured.out
