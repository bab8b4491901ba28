"""Tests for the live observability layer (repro.obs).

Contract under test: the progress engine is a pure observer — results
are bit-identical with observability on or off on every backend — and
its view is trustworthy: progress is monotone even when completions land
out of order, ETAs are sane when a resumed run replays a shard prefix,
and the Prometheus exposition parses line by line.
"""

import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.mc.importance import importance_sampling_estimate
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.obs import ProgressEngine, activate, get_active, stage_for
from repro.obs.http import obs_status, start_metrics_server
from repro.obs.prometheus import parse_exposition, render_exposition
from repro.obs.top import fetch_status, render_dashboard, run_top
from repro.parallel import ParallelExecutor, run_worker
from repro.parallel.workers import run_is_shard, run_mc_shard
from repro.stats.mvnormal import MultivariateNormal
from repro.synthetic import LinearMetric


@pytest.fixture
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


def _start_worker(address):
    thread = threading.Thread(
        target=run_worker, args=(address[0], address[1]), daemon=True
    )
    thread.start()
    return thread


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


# ----------------------------------------------------------------------
# bit-identity: observing never changes results


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_mc_identical_on_and_off(self, problem, backend):
        reference = _mc(problem, n_workers=2, backend=backend)
        with activate(ProgressEngine()) as engine:
            observed = _mc(problem, n_workers=2, backend=backend)
        assert engine.n_events > 0  # the hooks actually fired
        assert (
            observed.failure_probability == reference.failure_probability
        )
        assert observed.extras["n_failures"] == reference.extras["n_failures"]
        np.testing.assert_array_equal(
            observed.trace.estimate, reference.trace.estimate
        )

    def test_mc_identical_on_remote_backend(self, problem):
        reference = _mc(problem, n_workers=1, backend="serial")
        with activate(ProgressEngine()) as engine:
            with ParallelExecutor(
                backend="remote", min_workers=2, heartbeat=0.5
            ) as ex:
                threads = [_start_worker(ex.address) for _ in range(2)]
                observed = _mc(problem, executor=ex)
        assert (
            observed.failure_probability == reference.failure_probability
        )
        np.testing.assert_array_equal(
            observed.trace.estimate, reference.trace.estimate
        )
        # The coordinator's fleet snapshot was attached and reports hosts.
        fleet = engine.snapshot()["fleet"]
        assert fleet is not None and fleet["counts"]["joined"] == 2
        for thread in threads:
            thread.join(timeout=5)

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
            with activate(ProgressEngine()) as engine:
                observed = run(**kwargs)
            assert engine.n_events > 0
            assert (
                observed.failure_probability
                == reference.failure_probability
            )
            assert observed.relative_error == reference.relative_error

    def test_serial_paths_still_report_progress(self, problem):
        with activate(ProgressEngine()) as engine:
            _mc(problem)  # default executor: the grid runs inline
        (stage,) = engine.snapshot()["stages"]
        assert stage["stage"] == "mc"
        assert stage["shards_done"] == 8
        assert stage["sims_live"] == 2000
        assert stage["convergence"] is not None

    def test_witness_engine_records_zero_events_when_off(self, problem):
        witness = ProgressEngine()
        _mc(problem, n_workers=2, backend="thread")
        assert get_active() is None
        assert witness.n_events == 0


# ----------------------------------------------------------------------
# monotone progress under out-of-order completions


class TestMonotoneProgress:
    def test_fraction_never_decreases(self):
        engine = ProgressEngine(timer=FakeTimer())
        engine.map_started("mc", 10)
        seen = []
        # Completions land in an arbitrary order (remote workers race);
        # the engine only counts, so order cannot matter.
        for index in [3, 0, 7, 9, 1, 2, 8, 4, 6, 5]:
            engine.shard_done("mc", SimpleNamespace(n_sims=100 + index))
            seen.append(engine.snapshot()["stages"][0]["fraction"])
        assert seen == sorted(seen)
        assert seen[-1] == 1.0

    def test_totals_only_grow(self):
        engine = ProgressEngine(timer=FakeTimer())
        engine.map_started("mc", 4)
        state = engine.snapshot()["stages"][0]
        assert state["shards_total"] == 4
        # A second, smaller map on the same stage must not shrink totals.
        engine.map_started("mc", 2)
        assert engine.snapshot()["stages"][0]["shards_total"] == 4
        for _ in range(5):  # one more completion than planned
            engine.shard_done("mc", SimpleNamespace(n_sims=10))
        state = engine.snapshot()["stages"][0]
        assert state["shards_done"] == 5
        assert state["shards_total"] == 5  # floored at done, never < done
        assert state["fraction"] == 1.0

    def test_stage_names_resolved_from_runner_functions(self):
        assert stage_for(run_mc_shard) == "mc"
        assert stage_for(run_is_shard) == "second_stage"
        assert stage_for(len) == "len"  # unknown functions keep their name


# ----------------------------------------------------------------------
# ETA sanity, including replayed-prefix resumes


class TestEta:
    def test_eta_tracks_remaining_work(self):
        timer = FakeTimer()
        engine = ProgressEngine(timer=timer, ewma_tau=1e-9)
        engine.map_started("mc", 10)
        etas = []
        for _ in range(10):
            timer.advance(1.0)
            engine.shard_done("mc", SimpleNamespace(n_sims=1000))
            etas.append(engine.snapshot()["stages"][0]["eta_s"])
        # Steady 1000 sims/s, 1000-sim shards: ETA == remaining shards.
        assert etas[0] == pytest.approx(9.0, rel=0.01)
        assert etas[4] == pytest.approx(5.0, rel=0.01)
        assert etas[-1] == 0.0

    def test_replayed_prefix_counts_toward_completion_not_rate(self):
        timer = FakeTimer()
        engine = ProgressEngine(timer=timer, ewma_tau=1e-9)
        # Resume: 6 of 10 shards replay instantly from the ledger.
        engine.shards_replayed(
            "mc", [SimpleNamespace(n_sims=1000) for _ in range(6)]
        )
        engine.map_started("mc", 4)
        state = engine.snapshot()["stages"][0]
        assert state["shards_total"] == 10
        assert state["shards_replayed"] == 6
        assert state["fraction"] == pytest.approx(0.6)
        assert engine.snapshot()["sims_per_second"] == 0.0  # replays are free
        timer.advance(2.0)
        engine.shard_done("mc", SimpleNamespace(n_sims=1000))
        eta = engine.snapshot()["stages"][0]["eta_s"]
        # 3 shards left at 500 live sims/s -> ~6 s; replayed sims must not
        # have inflated the rate (which would predict a ~3x shorter ETA).
        assert eta == pytest.approx(6.0, rel=0.05)

    def test_empty_replay_is_a_no_op(self):
        engine = ProgressEngine(timer=FakeTimer())
        engine.shards_replayed("mc", [])
        assert engine.n_events == 0
        assert engine.snapshot()["stages"] == []


# ----------------------------------------------------------------------
# scoping (the service's per-job view)


class TestScoping:
    def test_scoped_stages_keep_separate_tallies(self):
        engine = ProgressEngine(timer=FakeTimer())
        with engine.scoped("job-a"):
            engine.shard_done("mc", SimpleNamespace(n_sims=10))
        with engine.scoped("job-b"):
            engine.shard_done("mc", SimpleNamespace(n_sims=20))
        a = engine.job_snapshot("job-a")
        b = engine.job_snapshot("job-b")
        assert [s["sims_live"] for s in a] == [10]
        assert [s["sims_live"] for s in b] == [20]
        assert engine.job_snapshot("job-c") == []

    def test_chain_diagnostics_keyed_by_scope(self):
        engine = ProgressEngine(timer=FakeTimer())
        with engine.scoped("job-a"):
            engine.chain_diagnostics(1.01, 432.0)
        chain = engine.snapshot()["chain"]
        assert chain == {"job-a": {"max_rhat": 1.01, "min_ess": 432.0}}


# ----------------------------------------------------------------------
# exposition round-trip


class TestExposition:
    def test_every_line_parses_and_values_round_trip(self, problem):
        recorder = telemetry.Recorder("expo")
        engine = ProgressEngine()
        with activate(engine), telemetry.activate(recorder):
            _mc(problem, n_workers=2, backend="thread")
        text = render_exposition(engine=engine, recorder=recorder)
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
        samples = parse_exposition(
            render_exposition(engine=engine, recorder=recorder)
        )
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
        engine = ProgressEngine(timer=FakeTimer())
        with engine.scoped('job"with\\quotes'):
            engine.shard_done("mc", SimpleNamespace(n_sims=1))
        samples = parse_exposition(render_exposition(engine=engine))
        keys = [k for k in samples if k[0] == "repro_shards_completed_total"]
        assert keys, samples

    def test_extra_gauges_and_convergence_series(self, problem):
        engine = ProgressEngine()
        with activate(engine):
            _mc(problem, n_workers=2, backend="thread")
        samples = parse_exposition(
            render_exposition(engine=engine, extra_gauges={"repro_x": 3})
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
        engine = ProgressEngine()
        recorder = telemetry.Recorder("srv")
        with activate(engine), telemetry.activate(recorder):
            _mc(problem, n_workers=2, backend="thread")
            with start_metrics_server(0) as server:
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
        with start_metrics_server(0) as server:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)

    def test_obs_status_defaults_to_actives(self):
        engine = ProgressEngine(timer=FakeTimer())
        engine.shard_done("mc", SimpleNamespace(n_sims=5))
        with activate(engine):
            status = obs_status()
        assert status["snapshot"]["stages"][0]["sims_live"] == 5


class TestTopDashboard:
    def _status(self):
        engine = ProgressEngine(timer=FakeTimer())
        engine.map_started("mc", 8)
        for _ in range(3):
            engine.shard_done(
                "mc", SimpleNamespace(n_sims=100, n_failures=2, count=100)
            )
        return obs_status(engine=engine, recorder=None)

    def test_render_dashboard_is_pure_text(self):
        text = render_dashboard(self._status(), url="http://x:1")
        assert "mc" in text
        assert "3/8 shards" in text
        assert "[" in text and "]" in text  # the progress bar

    def test_run_top_over_live_server(self, problem, capsys):
        engine = ProgressEngine()
        with activate(engine):
            _mc(problem, n_workers=2, backend="thread")
            with start_metrics_server(0) as server:
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


class TestServiceObservability:
    QUERY = dict(
        problem="iread", method="MC", seed=11,
        n_second_stage=512, shard_size=128,
    )

    def test_jobs_carry_progress_and_metrics_served(self, tmp_path):
        from repro.service import YieldService, make_server

        with YieldService(cache_dir=tmp_path, n_job_workers=1) as service:
            assert get_active() is service.progress
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

            server = make_server(service, port=0)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            port = server.server_address[1]
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=5
                ) as response:
                    text = response.read().decode("utf-8")
                status = fetch_status(f"http://127.0.0.1:{port}")
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
        samples = parse_exposition(text)
        assert samples[("repro_service_jobs_total", ())] == 1.0
        key = (
            "repro_shards_completed_total",
            (("job", job.id), ("stage", "mc")),
        )
        assert samples[key] == 4.0
        assert status["service"]["total_jobs"] == 1
        # Closing the service uninstalls its engine.
        assert get_active() is None

    def test_observability_false_installs_nothing(self, tmp_path):
        from repro.service import YieldService

        with YieldService(
            cache_dir=tmp_path, n_job_workers=1, observability=False
        ) as service:
            assert service.progress is None
            assert get_active() is None
            job = service.submit(dict(self.QUERY))
            service.result(job.id, timeout=120)
            assert "progress" not in service.status(job.id)


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
        engine = ProgressEngine()
        slow = _SlowMetric(problem.metric, problem.dimension, 0.05)
        text = None
        with activate(engine):
            with start_metrics_server(0) as server, ParallelExecutor(
                backend="remote", min_workers=2, heartbeat=0.5
            ) as ex:
                threads = [_start_worker(ex.address) for _ in range(2)]
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
        for thread in threads:
            thread.join(timeout=5)
