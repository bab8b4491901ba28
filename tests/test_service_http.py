"""End-to-end tests for the yield service: scheduler, HTTP API, client.

One module-scoped service + server (on an OS-assigned loopback port)
backs most tests, so the expensive part — one cold SRAM job — is paid
once and every later submission of the same query exercises the warm
path.  Budgets are tiny: the jobs here are about plumbing, not accuracy.
"""

import threading
import time

import pytest

from repro.service import (
    JobRequest,
    ServiceClient,
    ServiceError,
    YieldService,
    make_server,
)

#: The canonical query of this module: small, real, cacheable.
QUERY = dict(
    problem="iread", method="G-S", seed=11,
    n_gibbs=30, doe_budget=50, n_second_stage=128, shard_size=64,
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    with YieldService(cache_dir=cache_dir, n_job_workers=1) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    server = make_server(service, port=0)  # OS-assigned free port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHappyPath:
    def test_health(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["cache"]["root"]

    def test_cold_then_warm_round_trip(self, client):
        cold_id = client.submit(QUERY)
        cold = client.result(cold_id, wait=120)
        assert cold["state"] == "done"
        assert cold["job"]["cache_hit"] is False
        assert cold["result"]["failure_probability"] > 0
        assert cold["manifest"]["command"] == "service"

        warm_id = client.submit(QUERY)
        warm = client.result(warm_id, wait=120)
        assert warm["job"]["cache_hit"] is True
        assert warm["job"]["mode"] == "cached_result"
        # The acceptance contract, observed through the wire:
        # a warm hit runs zero simulations, first stage included.
        assert warm["job"]["sims_run"] == 0
        assert warm["job"]["first_stage_sims"] == 0
        assert warm["job"]["first_stage_sims_saved"] > 0
        assert (
            warm["result"]["failure_probability"]
            == cold["result"]["failure_probability"]
        )

    def test_manifest_written_to_cache_dir(self, client, service):
        job_id = client.submit(QUERY)
        client.result(job_id, wait=120)
        manifest_path = service.manifest_dir / f"{job_id}.json"
        assert manifest_path.exists()
        assert b'"cache_hit": true' in manifest_path.read_bytes()

    def test_jobs_listing_in_submission_order(self, client):
        before = [job["id"] for job in client.jobs()]
        new_id = client.submit(QUERY)
        client.result(new_id, wait=120)
        after = [job["id"] for job in client.jobs()]
        assert after[: len(before)] == before
        assert after[-1] == new_id

    def test_batch_submission(self, client):
        ids = client.submit_batch([QUERY, dict(QUERY, seed=12)])
        assert len(ids) == 2
        first = client.result(ids[0], wait=120)
        assert first["job"]["cache_hit"] is True  # same query as before
        second = client.result(ids[1], wait=180)
        assert second["job"]["cache_hit"] is False  # new seed = new entry

    def test_health_accumulates_savings(self, client):
        health = client.health()
        assert health["first_stage_sims_saved"] > 0
        assert health["cache"]["hits"] >= 1

    def test_long_poll_extends_the_socket_timeout(self):
        # A wait= long poll must not be killed by the client's own socket
        # timeout: a cold job slower than `timeout` seconds would die
        # client-side while the server still holds the request open.
        client = ServiceClient("http://example.invalid", timeout=5.0)
        seen = {}

        def spy(method, path, payload=None, timeout=None):
            seen["timeout"] = timeout
            return {}

        client._call = spy
        client.result("some-job", wait=60)
        assert seen["timeout"] == 65.0
        client.result("some-job")  # no wait: the default applies
        assert seen["timeout"] is None


class TestErrorContract:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("no-such-job")
        assert excinfo.value.status == 404

    def test_malformed_request_is_400(self, client):
        # Each must be refused up front: accepted, they fail only inside
        # the job after spending simulations, or (NaN timeout) never
        # time out.  The client sends NaN/inf as JSON NaN/Infinity.
        for override, message in (
            (dict(problem="nope"), "unknown problem"),
            (dict(timeout=float("nan")), "timeout must be finite"),
            (dict(sigma_global=float("inf")), "sigma_global must be finite"),
            (dict(threshold=float("nan")), "threshold must be finite"),
            (dict(chain_jitter=float("inf")), "chain_jitter must be finite"),
            (dict(epsilon=float("nan")), "epsilon must be finite"),
            (dict(zeta=float("-inf")), "zeta must be finite"),
            (dict(corner="XX"), "unknown corner"),
            (dict(proposal_fit="bogus"), "unknown proposal_fit"),
            (dict(surrogate_order="cubic"), "unknown surrogate_order"),
            (dict(sigma_global=-0.01), "sigma_global must be >= 0"),
            # A negative depth froze every interval search: a "successful"
            # job 26x low on P_f.  Zero rounds never move a bracket either.
            (dict(bisect_iters=-3), "bisect_iters must be in [1, 52]"),
            (dict(bisect_iters=0), "bisect_iters must be in [1, 52]"),
            (dict(bisect_iters=53), "bisect_iters must be in [1, 52]"),
            (dict(n_second_stage=10**12), "n_second_stage must be in"),
            (dict(n_gibbs=10**9), "n_gibbs must be in"),
            (dict(n_chains=10**6), "n_chains must be in"),
            (dict(shard_size=10**9), "shard_size must be in"),
            (dict(ladder_width=10**4), "ladder_width must be in"),
            # Warm starts are always on; the retired knob is an unknown
            # field, not a silently ignored one.
            (dict(solver_warm_start=True), "unknown job fields"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(QUERY, **override))
            assert excinfo.value.status == 400, override
            assert message in str(excinfo.value), override

    def test_unknown_field_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(QUERY, n_gibs=300))  # typo must not default
        assert excinfo.value.status == 400
        assert "n_gibs" in str(excinfo.value)

    def test_pending_result_is_409(self, client):
        # A fresh seed forces a cold (slow) run; polling without wait=
        # must say "not done yet", not "error".
        job_id = client.submit(dict(QUERY, seed=777))
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 409
        client.result(job_id, wait=180)  # drain before the next test

    def test_unroutable_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._call("GET", "/nope")
        assert excinfo.value.status == 404


class TestCancellation:
    def test_cancel_queued_job(self, client):
        # One job worker: the first submission occupies it, the second
        # is still queued when we cancel it.
        running_id = client.submit(dict(QUERY, seed=888))
        queued_id = client.submit(dict(QUERY, seed=889))
        assert client.cancel(queued_id) is True
        client.result(running_id, wait=180)
        status = client.status(queued_id)
        assert status["state"] == "cancelled"
        assert "before start" in status["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.result(queued_id)
        assert excinfo.value.status == 410  # gone, not pending

    def test_timeout_cancels_cooperatively(self, client):
        job_id = client.submit(dict(QUERY, seed=890, timeout=1e-3))
        deadline = time.time() + 60
        while time.time() < deadline:
            status = client.status(job_id)
            if status["state"] not in ("queued", "running"):
                break
            time.sleep(0.05)
        assert status["state"] == "cancelled"
        assert "timed out" in status["error"]

    def test_cancel_finished_job_is_noop(self, client):
        job_id = client.submit(QUERY)
        client.result(job_id, wait=120)
        assert client.cancel(job_id) is False


class TestSchedulerDirect:
    """Scheduler behaviour that needs no HTTP round trip."""

    def test_submit_validates_before_queueing(self, service):
        with pytest.raises(ValueError, match="n_second_stage"):
            service.submit(JobRequest(n_second_stage=1))

    def test_result_of_failed_job_raises(self, tmp_path):
        with YieldService(cache_dir=tmp_path) as svc:
            # A valid request whose threshold no sample can fail: the
            # start-point search raises inside the job, and the error
            # must land on the record.
            job = svc.submit(JobRequest(
                problem="iread", method="G-S", threshold=-1.0,
                n_gibbs=10, doe_budget=30, n_second_stage=64, shard_size=64,
            ))
            svc.wait(job.id, timeout=120)
            assert job.state == "failed"
            assert job.error
            with pytest.raises(RuntimeError, match="failed"):
                svc.result(job.id)

    def test_close_tears_pools_down_and_rejects_submissions(self, tmp_path):
        svc = YieldService(cache_dir=tmp_path)
        svc.close()
        assert svc.executor._pool is None
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(JobRequest())
        svc.close()  # idempotent
