"""Tests for the live view and its exporters (repro.telemetry.live, repro.obs).

Contract under test: the recorder's live view is a pure observer —
results are bit-identical with a recorder active or not on every backend
— and its view is trustworthy: progress is monotone even when
completions land out of order, ETAs are sane when a resumed run replays
a shard prefix, and the Prometheus exposition parses line by line.
"""

import multiprocessing
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.analysis.experiments import _run_method_task, run_trials
from repro.cli import main as cli_main
from repro.mc.importance import importance_sampling_estimate
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.obs.http import obs_status, start_metrics_server
from repro.obs.prometheus import parse_exposition, render_exposition
from repro.obs.top import fetch_status, render_dashboard, run_top
from repro.parallel import ParallelExecutor, run_worker
from repro.parallel import workers as shard_workers
from repro.parallel.ledger import _result_type
from repro.parallel.workers import run_is_shard, run_mc_shard
from repro.stats.mvnormal import MultivariateNormal
from repro.synthetic import LinearMetric
from repro.telemetry.live import STAGE_OF, STAGES


@pytest.fixture
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test must leave the process-local recorder slot empty."""
    yield
    assert telemetry.get_active() is None


def _start_worker(address):
    """A socket worker in its own process, as ``repro worker`` runs one.

    Not a thread: a shard task installs its own recorder as the
    process-global active one while it runs, which in the coordinator's
    process would catch the coordinator's own telemetry calls meanwhile.
    """
    worker = multiprocessing.get_context("spawn").Process(
        target=run_worker, args=(address[0], address[1]), daemon=True
    )
    worker.start()
    return worker


def _mc(problem, executor=None, **kwargs):
    return brute_force_monte_carlo(
        problem.metric, problem.spec, 2000,
        dimension=problem.dimension, rng=9,
        chunk_size=250, shard_size=250, executor=executor, **kwargs,
    )


class FakeTimer:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


@pytest.fixture
def timer():
    """A fake shared telemetry clock for the recorders a test builds."""
    fake = FakeTimer()
    with telemetry.use_timer(fake):
        yield fake


def _stages(recorder):
    return recorder.status()["snapshot"]["stages"]


def _done(recorder, n_sims, source="run_mc_shard", **fields):
    recorder.shard_results(source, [SimpleNamespace(n_sims=n_sims, **fields)])


# ----------------------------------------------------------------------
# bit-identity: observing never changes results


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_mc_identical_on_and_off(self, problem, backend):
        reference = _mc(problem, n_workers=2, backend=backend)
        with telemetry.activate(telemetry.Recorder("obs")) as recorder:
            observed = _mc(problem, n_workers=2, backend=backend)
        (stage,) = _stages(recorder)  # the view actually saw the run
        assert stage["shards_done"] == 8
        assert (
            observed.failure_probability == reference.failure_probability
        )
        assert observed.extras["n_failures"] == reference.extras["n_failures"]
        np.testing.assert_array_equal(
            observed.trace.estimate, reference.trace.estimate
        )

    def test_mc_identical_on_remote_backend(self, problem):
        reference = _mc(problem, n_workers=1, backend="serial")
        with telemetry.activate(telemetry.Recorder("obs")) as recorder:
            with ParallelExecutor(
                backend="remote", min_workers=2, heartbeat=0.5
            ) as ex:
                workers = [_start_worker(ex.address) for _ in range(2)]
                observed = _mc(problem, executor=ex)
        assert (
            observed.failure_probability == reference.failure_probability
        )
        np.testing.assert_array_equal(
            observed.trace.estimate, reference.trace.estimate
        )
        # The coordinator's fleet snapshot was attached and reports hosts.
        fleet = recorder.status()["snapshot"]["fleet"]
        assert fleet is not None and fleet["counts"]["joined"] == 2
        for worker in workers:
            worker.join(timeout=30)

    def test_second_stage_identical_serial_and_sharded(self, problem):
        proposal = MultivariateNormal(
            mean=np.array([2.0, 1.0]), cov=np.eye(problem.dimension)
        )

        def run(**kwargs):
            return importance_sampling_estimate(
                problem.metric, problem.spec, proposal, 4096,
                rng=5, **kwargs,
            )

        for kwargs in ({}, {"n_workers": 2, "backend": "thread",
                            "shard_size": 512}):
            reference = run(**kwargs)
            with telemetry.activate(telemetry.Recorder("obs")) as recorder:
                observed = run(**kwargs)
            (stage,) = _stages(recorder)
            assert stage["stage"] == "second_stage"
            assert (
                observed.failure_probability
                == reference.failure_probability
            )
            assert observed.relative_error == reference.relative_error

    def test_serial_paths_still_report_progress(self, problem):
        with telemetry.activate(telemetry.Recorder("obs")) as recorder:
            _mc(problem)  # default executor: the grid runs inline
        (stage,) = _stages(recorder)
        assert stage["stage"] == "mc"
        assert stage["shards_done"] == 8
        assert stage["sims_live"] == 2000
        assert stage["convergence"] is not None

    def test_witness_engine_records_zero_events_when_off(self, problem):
        witness = telemetry.Recorder("witness")
        _mc(problem, n_workers=2, backend="thread")
        assert telemetry.get_active() is None
        assert witness.n_events == 0
        assert _stages(witness) == []


# ----------------------------------------------------------------------
# monotone progress under out-of-order completions


class TestMonotoneProgress:
    def test_fraction_never_decreases(self, timer):
        recorder = telemetry.Recorder("t")
        seen = []
        with recorder.span("parallel.map", fn="run_mc_shard", tasks=10):
            # Completions land in an arbitrary order (remote workers
            # race); the view only counts, so order cannot matter.
            for index in [3, 0, 7, 9, 1, 2, 8, 4, 6, 5]:
                _done(recorder, 100 + index)
                seen.append(_stages(recorder)[0]["fraction"])
        assert seen == sorted(seen)
        assert seen[-1] == 1.0

    def test_totals_only_grow(self, timer):
        recorder = telemetry.Recorder("t")
        with recorder.span("parallel.map", fn="run_mc_shard", tasks=4):
            pass
        assert _stages(recorder)[0]["shards_total"] == 4
        # A second, smaller map on the same stage must not shrink totals.
        with recorder.span("parallel.map", fn="run_mc_shard", tasks=2):
            pass
        assert _stages(recorder)[0]["shards_total"] == 4
        for _ in range(5):  # one more completion than planned
            _done(recorder, 10)
        state = _stages(recorder)[0]
        assert state["shards_done"] == 5
        assert state["shards_total"] == 5  # floored at done, never < done
        assert state["fraction"] == 1.0

    def test_concurrent_completions_lose_no_update(self):
        """Thread-backend and HTTP threads share one recorder's view."""
        recorder = telemetry.Recorder("t")
        n_threads, per_thread = 8, 200
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def complete():
                for _ in range(per_thread):
                    _done(recorder, 3, weights=np.ones(2))
                    recorder.status()

            threads = [
                threading.Thread(target=complete) for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        (stage,) = _stages(recorder)
        assert stage["shards_done"] == n_threads * per_thread
        assert stage["sims_live"] == 3 * n_threads * per_thread
        assert stage["convergence"]["n"] == 2 * n_threads * per_thread

    def test_stage_names_resolved_from_runner_functions(self):
        assert STAGE_OF[run_mc_shard.__name__] == "mc"
        assert STAGE_OF[run_is_shard.__name__] == "second_stage"
        assert STAGE_OF["gibbs"] == "first_stage"  # ledger kind
        assert STAGE_OF["mc.run"] == "mc"  # stage span
        # A method-panel task reports as one second-stage shard.
        assert STAGE_OF[_run_method_task.__name__] == "second_stage"
        # Anything else is not a sampling stage and stays out of the view.
        assert "len" not in STAGE_OF
        for _, _, runner, kind in STAGES:
            if kind is None:  # the panel row: no span, no ledger rows
                assert runner == _run_method_task.__name__
                continue
            assert callable(getattr(shard_workers, runner))
            _result_type(kind)  # a ledger kind the ledger knows

    def test_process_pool_panel_reports_its_tasks(self, problem):
        recorder = telemetry.Recorder("panel")
        with telemetry.activate(recorder):
            trials = run_trials(
                problem, "MC", 3, seed=4, n_workers=2, backend="process",
                n_second_stage=1000,
            )
        # The methods' own stages ran in the pool's workers; the run's
        # view still counts each finished trial.
        (stage,) = _stages(recorder)
        assert stage["stage"] == "second_stage"
        assert stage["shards_total"] == stage["shards_done"] == 3
        assert stage["fraction"] == 1.0
        serial = run_trials(
            problem, "MC", 3, seed=4, backend="serial", n_second_stage=1000
        )
        assert [t.failure_probability for t in trials] == [
            t.failure_probability for t in serial
        ]

    def test_stage_spans_drive_the_stage_state(self, timer):
        recorder = telemetry.Recorder("t")
        with recorder.span("mc.run"):
            timer.advance(2.0)
            (stage,) = _stages(recorder)
            assert stage["stage"] == "mc" and stage["active"]
            assert stage["elapsed_s"] == 2.0
        timer.advance(5.0)
        (stage,) = _stages(recorder)
        assert not stage["active"]
        assert stage["elapsed_s"] == 2.0
        # Maps of functions that run no sampling stage are not tracked.
        with recorder.span("parallel.map", fn="warm_up", tasks=3):
            _done(recorder, 7, source="warm_up")
        assert [s["stage"] for s in _stages(recorder)] == ["mc"]


# ----------------------------------------------------------------------
# ETA sanity, including replayed-prefix resumes


class TestEta:
    # Shards take 100 s and more, far beyond the 5 s EWMA time constant,
    # so the smoothed rate equals the instantaneous one.

    def test_eta_tracks_remaining_work(self, timer):
        recorder = telemetry.Recorder("t")
        etas = []
        with recorder.span("parallel.map", fn="run_mc_shard", tasks=10):
            for _ in range(10):
                timer.advance(100.0)
                _done(recorder, 100_000)
                etas.append(_stages(recorder)[0]["eta_s"])
        # Steady 1000 sims/s, 100,000-sim shards: 100 s per shard left.
        assert etas[0] == pytest.approx(900.0, rel=0.01)
        assert etas[4] == pytest.approx(500.0, rel=0.01)
        assert etas[-1] == 0.0

    def test_replayed_prefix_counts_toward_completion_not_rate(self, timer):
        recorder = telemetry.Recorder("t")
        # Resume: 6 of 10 shards replay instantly from the ledger.
        recorder.shard_results(
            "mc", [SimpleNamespace(n_sims=100_000) for _ in range(6)],
            replayed=True,
        )
        with recorder.span("parallel.map", fn="run_mc_shard", tasks=4):
            state = _stages(recorder)[0]
            assert state["shards_total"] == 10
            assert state["shards_replayed"] == 6
            assert state["fraction"] == pytest.approx(0.6)
            # Replays are free.
            assert recorder.status()["snapshot"]["sims_per_second"] == 0.0
            timer.advance(200.0)
            _done(recorder, 100_000)
            eta = _stages(recorder)[0]["eta_s"]
        # 3 shards left at 500 live sims/s -> ~600 s; replayed sims must
        # not have inflated the rate (which would predict a ~3x shorter
        # ETA).
        assert eta == pytest.approx(600.0, rel=0.05)

    def test_empty_replay_is_a_no_op(self):
        recorder = telemetry.Recorder("t")
        recorder.shard_results("mc", [], replayed=True)
        assert recorder.n_events == 0
        assert _stages(recorder) == []


# ----------------------------------------------------------------------
# scoping (the service's per-job view)


class TestScoping:
    def test_scoped_stages_keep_separate_tallies(self):
        recorder = telemetry.Recorder("t")
        with recorder.span("service.job", job="job-a"):
            _done(recorder, 10)
            # The scope is the job span's thread's: another thread's
            # completions stay unscoped.
            other = threading.Thread(target=_done, args=(recorder, 5))
            other.start()
            other.join()
        with recorder.span("service.job", job="job-b"):
            _done(recorder, 20)
        a = recorder.job_progress("job-a")
        b = recorder.job_progress("job-b")
        assert [s["sims_live"] for s in a] == [10]
        assert [s["sims_live"] for s in b] == [20]
        assert [s["sims_live"] for s in recorder.job_progress("")] == [5]
        assert recorder.job_progress("job-c") == []

    def test_chain_diagnostics_keyed_by_scope(self):
        recorder = telemetry.Recorder("t")
        with recorder.span("service.job", job="job-a"):
            recorder.gauge("chain.max_rhat", 1.01)
            chain = recorder.status()["snapshot"]["chain"]
            assert chain == {}  # shown once both gauges have arrived
            recorder.gauge("chain.min_ess", 432.0)
        chain = recorder.status()["snapshot"]["chain"]
        assert chain == {"job-a": {"max_rhat": 1.01, "min_ess": 432.0}}


# ----------------------------------------------------------------------
# exposition round-trip


class TestExposition:
    def test_every_line_parses_and_values_round_trip(self, problem):
        recorder = telemetry.Recorder("expo")
        with telemetry.activate(recorder):
            _mc(problem, n_workers=2, backend="thread")
        text = render_exposition(recorder)
        samples = parse_exposition(text)  # raises on any malformed line
        assert samples[("repro_up", ())] == 1.0
        assert samples[
            ("repro_shards_completed_total", (("stage", "mc"),))
        ] == 8.0
        assert samples[
            ("repro_sims_completed_total", (("stage", "mc"),))
        ] == 2000.0
        assert samples[
            ("repro_stage_progress_ratio", (("stage", "mc"),))
        ] == 1.0
        # Recorder counters ride along under the fixed metric families.
        recorder.count("custom.total", 5)
        recorder.gauge("custom.level", 2.5)
        samples = parse_exposition(render_exposition(recorder))
        assert samples[
            ("repro_events_total", (("name", "custom.total"),))
        ] == 5.0
        assert samples[("repro_gauge", (("name", "custom.level"),))] == 2.5

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="bad sample"):
            parse_exposition("repro_up{ 1.0\n")
        with pytest.raises(ValueError):
            parse_exposition("repro_up one\n")

    def test_label_values_escaped(self):
        recorder = telemetry.Recorder("t")
        with recorder.span("service.job", job='job"with\\quotes'):
            _done(recorder, 1)
        samples = parse_exposition(render_exposition(recorder))
        keys = [k for k in samples if k[0] == "repro_shards_completed_total"]
        assert keys, samples

    def test_extra_gauges_and_convergence_series(self, problem):
        recorder = telemetry.Recorder("t")
        with telemetry.activate(recorder):
            _mc(problem, n_workers=2, backend="thread")
        samples = parse_exposition(
            render_exposition(recorder, extra_gauges={"repro_x": 3})
        )
        assert samples[("repro_x", ())] == 3.0
        assert ("repro_convergence_estimate", (("stage", "mc"),)) in samples
        assert (
            "repro_convergence_relative_error", (("stage", "mc"),)
        ) in samples


# ----------------------------------------------------------------------
# recorder percentiles (summary satellite)


class TestRecorderPercentiles:
    def test_p50_p95_on_dense_stream(self):
        recorder = telemetry.Recorder("pct")
        for value in range(1, 1001):
            recorder.observe("lat", float(value))
        pct = recorder.percentiles("lat")
        # The deterministic reservoir decimates, so percentiles are
        # approximate — but they must stay in the right neighbourhood.
        assert pct[0.5] == pytest.approx(500, rel=0.15)
        assert pct[0.95] == pytest.approx(950, rel=0.1)

    def test_summary_shows_percentiles(self):
        recorder = telemetry.Recorder("pct")
        for value in (1.0, 2.0, 3.0, 4.0):
            recorder.observe("lat", value)
        summary = recorder.summary()
        assert "p50=" in summary and "p95=" in summary

    def test_reservoir_survives_fold_round_trip(self):
        left, right = telemetry.Recorder("l"), telemetry.Recorder("r")
        for value in range(100):
            (left if value % 2 else right).observe("lat", float(value))
        left.fold(right.to_record())
        pct = left.percentiles("lat")
        assert pct[0.5] == pytest.approx(50, abs=15)


# ----------------------------------------------------------------------
# HTTP endpoints and the dashboard


class TestMetricsServer:
    def test_metrics_and_status_round_trip(self, problem):
        recorder = telemetry.Recorder("srv")
        with telemetry.activate(recorder):
            _mc(problem, n_workers=2, backend="thread")
            with start_metrics_server(0, recorder) as server:
                with urllib.request.urlopen(
                    f"{server.url}/metrics", timeout=5
                ) as response:
                    assert "text/plain" in response.headers["Content-Type"]
                    text = response.read().decode("utf-8")
                status = fetch_status(server.url)
        samples = parse_exposition(text)
        assert samples[
            ("repro_shards_completed_total", (("stage", "mc"),))
        ] == 8.0
        assert status["snapshot"]["stages"][0]["shards_done"] == 8
        assert isinstance(status["counters"], dict)

    def test_unknown_route_404s(self):
        with start_metrics_server(0, None) as server:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)

    def test_obs_status_defaults_to_actives(self):
        assert obs_status()["snapshot"] is None  # nothing active
        recorder = telemetry.Recorder("t")
        _done(recorder, 5)
        with telemetry.activate(recorder):
            status = obs_status()
        assert status["snapshot"]["stages"][0]["sims_live"] == 5


class TestTopDashboard:
    def _status(self):
        recorder = telemetry.Recorder("t")
        with recorder.span("parallel.map", fn="run_mc_shard", tasks=8):
            for _ in range(3):
                _done(recorder, 100, n_failures=2, count=100)
        return obs_status(recorder)

    def test_render_dashboard_is_pure_text(self):
        text = render_dashboard(self._status(), url="http://x:1")
        assert "mc" in text
        assert "3/8 shards" in text
        assert "[" in text and "]" in text  # the progress bar

    def test_run_top_over_live_server(self, problem, capsys):
        recorder = telemetry.Recorder("t")
        with telemetry.activate(recorder):
            _mc(problem, n_workers=2, backend="thread")
            with start_metrics_server(0, recorder) as server:
                code = run_top(server.url, interval=0.01, iterations=2)
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "mc" in out

    def test_run_top_unreachable_renders_error_frame(self, capsys):
        code = run_top(
            "http://127.0.0.1:9", interval=0.01, iterations=1
        )
        assert code == 0
        assert "unreachable" in capsys.readouterr().out


# ----------------------------------------------------------------------
# service integration: per-job progress and the /metrics route


def _scrape(service):
    """Parsed ``/metrics``, ``/status`` and ``GET /jobs`` of a service."""
    from repro.service import ServiceClient, make_server

    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            text = response.read().decode("utf-8")
        status = fetch_status(url)
        jobs = ServiceClient(url).jobs()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return parse_exposition(text), status, jobs


class TestServiceObservability:
    QUERY = dict(
        problem="iread", method="MC", seed=11,
        n_second_stage=512, shard_size=128,
    )

    def test_jobs_carry_progress_and_metrics_served(self, tmp_path):
        from repro.service import YieldService

        with YieldService(cache_dir=tmp_path, n_job_workers=1) as service:
            assert telemetry.get_active() is service.recorder
            job = service.submit(dict(self.QUERY))
            service.result(job.id, timeout=120)
            status = service.status(job.id)
            assert status["state"] == "done"
            stages = {s["stage"]: s for s in status["progress"]}
            assert stages["mc"]["scope"] == job.id
            assert stages["mc"]["fraction"] == 1.0
            (listing,) = [
                s for s in service.jobs() if s["id"] == job.id
            ]
            assert listing["progress"] == status["progress"]
            samples, status, _ = _scrape(service)
        assert samples[("repro_service_jobs_total", ())] == 1.0
        key = (
            "repro_shards_completed_total",
            (("job", job.id), ("stage", "mc")),
        )
        assert samples[key] == 4.0
        # The service's recorder families ride along.
        assert samples[
            ("repro_events_total", (("name", "service.cache.misses"),))
        ] == 1.0
        assert status["service"]["total_jobs"] == 1
        # Closing the service deactivates its recorder.
        assert telemetry.get_active() is None

    def test_process_pool_live_view_cold_then_refine(self, tmp_path):
        """A cold G-S job, then a 4x refine, on a 2-worker process pool."""
        from repro.service import JobRequest, YieldService
        from repro.service.runner import execute_job

        cold = dict(
            problem="iread", method="G-S", seed=3, n_gibbs=8, n_chains=2,
            chain_jitter=0.0, n_second_stage=256, shard_size=128,
        )
        refine = dict(cold, n_second_stage=1024)
        references = [
            execute_job(JobRequest.from_dict(query))[0]
            for query in (cold, refine)
        ]
        with YieldService(
            cache_dir=tmp_path, n_job_workers=1, n_workers=2,
            backend="process",
        ) as service:
            jobs = []
            for query, reference in zip((cold, refine), references):
                job = service.submit(dict(query))
                result = service.result(job.id, timeout=300)
                assert (
                    result.failure_probability
                    == reference.failure_probability
                )
                assert result.relative_error == reference.relative_error
                assert result.n_second_stage == reference.n_second_stage
                np.testing.assert_array_equal(
                    result.trace.estimate, reference.trace.estimate
                )
                jobs.append(job)
            samples, _, listings = _scrape(service)
            counters = service.recorder.counters
        progress = {
            listing["id"]: {s["stage"]: s for s in listing["progress"]}
            for listing in listings
        }
        cold_id, refine_id = (job.id for job in jobs)
        assert set(progress[cold_id]) == {"first_stage", "second_stage"}
        for stage in progress[cold_id].values():
            assert stage["scope"] == cold_id and stage["fraction"] == 1.0
        (refined,) = progress[refine_id].values()
        assert refined["stage"] == "second_stage"
        assert refined["fraction"] == 1.0
        assert refined["shards_replayed"] == 2  # the cold job's 256 samples
        assert refined["shards_done"] == 6
        assert samples[(
            "repro_shards_completed_total",
            (("job", cold_id), ("stage", "second_stage")),
        )] == 2.0
        assert samples[(
            "repro_shards_replayed_total",
            (("job", refine_id), ("stage", "second_stage")),
        )] == 2.0
        # Pool workers shipped their shard records home, the cold job's
        # ledger rows carry them, and the refine replayed those rows.
        assert counters["ledger.snapshots_folded"] == 2
        assert counters["replayed.metric.sims"] == 256


# ----------------------------------------------------------------------
# live scrape during a running remote estimate (the acceptance check)


class _SlowMetric:
    """Picklable metric wrapper that makes shards take real wall time."""

    def __init__(self, metric, dimension, delay):
        self.metric = metric
        self.dimension = dimension
        self.delay = delay

    def __call__(self, x):
        time.sleep(self.delay)
        return self.metric(x)


class TestLiveScrape:
    def test_mid_run_scrape_has_progress_and_fleet_series(self, problem):
        slow = _SlowMetric(problem.metric, problem.dimension, 0.05)
        text = None
        recorder = telemetry.Recorder("live")
        with telemetry.activate(recorder):
            with start_metrics_server(0, recorder) as server, ParallelExecutor(
                backend="remote", min_workers=2, heartbeat=0.5
            ) as ex:
                workers = [_start_worker(ex.address) for _ in range(2)]
                done = threading.Event()

                def run():
                    try:
                        brute_force_monte_carlo(
                            slow, problem.spec, 4000,
                            dimension=problem.dimension, rng=9,
                            chunk_size=250, shard_size=250, executor=ex,
                        )
                    finally:
                        done.set()

                runner = threading.Thread(target=run, daemon=True)
                runner.start()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline and not done.is_set():
                    with urllib.request.urlopen(
                        f"{server.url}/metrics", timeout=5
                    ) as response:
                        body = response.read().decode("utf-8")
                    if (
                        'repro_shards_completed_total{stage="mc"}' in body
                        and "repro_worker_heartbeat_age_seconds" in body
                        and "repro_convergence_estimate" in body
                    ):
                        text = body  # scraped while shards are in flight
                        break
                    time.sleep(0.02)
                runner.join(timeout=60)
        assert text is not None, "never caught the run in flight"
        samples = parse_exposition(text)
        families = {name for name, _ in samples}
        assert "repro_shards_completed_total" in families
        assert "repro_convergence_estimate" in families
        assert "repro_worker_heartbeat_age_seconds" in families
        assert "repro_workers_connected" in families
        for worker in workers:
            worker.join(timeout=30)


class _GatedMetric:
    """Picklable metric for a one-call-per-shard run on one worker.

    The first shard's call returns at once; every later call touches
    ``blocked`` and waits until ``release`` exists, so a test can act
    while a shard task is provably running.
    """

    def __init__(self, metric, dimension, gate_dir):
        self.metric = metric
        self.dimension = dimension
        self.gate_dir = gate_dir

    def __call__(self, x):
        first = self.gate_dir / "first"
        if first.exists():
            (self.gate_dir / "blocked").touch()
            deadline = time.monotonic() + 60
            while not (self.gate_dir / "release").exists():
                assert time.monotonic() < deadline, "never released"
                time.sleep(0.01)
        else:
            first.touch()
        return self.metric(x)


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestWorkerExporter:
    def test_scrape_during_a_shipped_task_reads_the_worker(
        self, problem, tmp_path
    ):
        """``repro worker --metrics-port`` keeps its view while it runs a
        task whose telemetry ships home (the task installs its own
        recorder as the active one for its duration)."""
        gated = _GatedMetric(problem.metric, problem.dimension, tmp_path)
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        with telemetry.activate(telemetry.Recorder("coordinator")):
            with ParallelExecutor(
                backend="remote", min_workers=1, heartbeat=0.5
            ) as ex:
                host, coordinator_port = ex.address
                worker = multiprocessing.get_context("spawn").Process(
                    target=cli_main,
                    args=([
                        "worker", "--connect", f"{host}:{coordinator_port}",
                        "--metrics-port", str(port),
                    ],),
                    daemon=True,
                )
                worker.start()
                runner = threading.Thread(
                    target=brute_force_monte_carlo,
                    args=(gated, problem.spec, 500),
                    kwargs=dict(
                        dimension=problem.dimension, rng=9, chunk_size=250,
                        shard_size=250, executor=ex,
                    ),
                    daemon=True,
                )
                runner.start()
                try:
                    deadline = time.monotonic() + 60
                    while not (tmp_path / "blocked").exists():
                        assert time.monotonic() < deadline, "no second task"
                        time.sleep(0.01)
                    # The worker is inside its second shard task now.
                    status = fetch_status(url)
                    with urllib.request.urlopen(
                        f"{url}/metrics", timeout=5
                    ) as response:
                        text = response.read().decode("utf-8")
                finally:
                    (tmp_path / "release").touch()
                    runner.join(timeout=60)
        worker.join(timeout=30)
        assert status["snapshot"] is not None
        assert status["counters"]["worker.tasks_completed"] == 1
        (stage,) = status["snapshot"]["stages"]
        assert (stage["stage"], stage["shards_done"]) == ("mc", 1)
        samples = parse_exposition(text)
        assert samples[
            ("repro_shards_completed_total", (("stage", "mc"),))
        ] == 1.0
        assert samples[("repro_uptime_seconds", ())] > 0.0
