"""Tests for the socket transport backend (repro.parallel.remote).

Contract under test: ``backend="remote"`` is just another executor — the
merged result is bit-identical to serial/thread/process because shards
carry their own spawn-indexed streams — plus the elastic specifics: OOB
buffer framing, as-completed ``on_result`` streaming, worker loss and
shard reassignment, and graceful drain.
"""

import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.mc.counter import CountedMetric
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.parallel import (
    PROTOCOL_VERSION,
    ParallelExecutor,
    RemoteCoordinator,
    RemoteTaskError,
    run_worker,
)
from repro.parallel.remote import FramedConnection, parse_address
from repro.synthetic import LinearMetric


@pytest.fixture
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"shard {x} exploded")


def _boom_or_slow(task):
    if task == "boom":
        raise ValueError("shard exploded")
    time.sleep(0.8)
    return 42


def _slow_square(x):
    time.sleep(0.4)
    return x * x


def _start_worker(address, **kwargs):
    thread = threading.Thread(
        target=run_worker,
        args=(address[0], address[1]),
        kwargs=kwargs,
        daemon=True,
    )
    thread.start()
    return thread


class TestParseAddress:
    def test_string(self):
        assert parse_address("10.0.0.2:7341") == ("10.0.0.2", 7341)

    def test_tuple(self):
        assert parse_address(("h", "80")) == ("h", 80)

    def test_bad_string_raises(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_address("7341")


class TestFramedConnection:
    def test_roundtrip_with_oob_arrays(self):
        left_sock, right_sock = socket.socketpair()
        left, right = FramedConnection(left_sock), FramedConnection(right_sock)
        try:
            payload = {
                "big": np.arange(100000, dtype=np.float64),
                "small": np.eye(3),
                "tag": "hello",
            }
            # A payload this size overflows the kernel socket buffer, so
            # the send must overlap the receive (as it does in real use).
            sender = threading.Thread(
                target=left.send, args=(("msg", payload),)
            )
            sender.start()
            kind, received = right.recv()
            sender.join(timeout=5)
            assert kind == "msg" and received["tag"] == "hello"
            np.testing.assert_array_equal(received["big"], payload["big"])
            np.testing.assert_array_equal(received["small"], payload["small"])
        finally:
            left.close()
            right.close()

    def test_many_messages_stay_ordered(self):
        left_sock, right_sock = socket.socketpair()
        left, right = FramedConnection(left_sock), FramedConnection(right_sock)
        try:
            for i in range(50):
                left.send(("n", i, np.full(10, i)))
            for i in range(50):
                kind, n, arr = right.recv()
                assert n == i and arr[0] == i
        finally:
            left.close()
            right.close()

    def test_peer_close_raises_connection_error(self):
        left_sock, right_sock = socket.socketpair()
        left, right = FramedConnection(left_sock), FramedConnection(right_sock)
        left.close()
        with pytest.raises((ConnectionError, OSError)):
            right.recv()
        right.close()


class TestCoordinator:
    def test_map_ordered_with_streaming_callback(self):
        with RemoteCoordinator(min_workers=2, heartbeat=0.5) as coord:
            threads = [_start_worker(coord.address) for _ in range(2)]
            seen = []
            results = coord.map(_square, [3, 1, 4, 1, 5], on_result=seen.append)
            assert results == [9, 1, 16, 1, 25]  # serial order
            assert sorted(seen) == sorted(results)  # completion order
            assert len(coord.dispatch_overhead_s) == 5
            assert all(o >= 0 for o in coord.dispatch_overhead_s)
        for thread in threads:
            thread.join(timeout=5)

    def test_empty_map(self):
        with RemoteCoordinator(min_workers=1, heartbeat=0.5) as coord:
            assert coord.map(_square, []) == []

    def test_close_frees_port_and_threads(self):
        """After close() the port refuses connections, and neither the
        accept thread nor any receive thread is left running."""
        coord = RemoteCoordinator(min_workers=2, heartbeat=0.5)
        workers = [_start_worker(coord.address) for _ in range(2)]
        assert coord.map(_square, [2, 3]) == [4, 9]
        receivers = [w.receiver for w in coord._workers]
        names = {t.name for t in [coord._accepter] + receivers}
        coord.close()
        assert not coord._accepter.is_alive()
        assert not any(t.is_alive() for t in receivers)
        for thread in workers:
            thread.join(timeout=5)
            assert not thread.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(coord.address, timeout=2).close()
        left = [t.name for t in threading.enumerate()
                if t.name.startswith("repro-remote-recv") and t.name in names]
        assert left == []

    def test_late_handshake_after_close_is_dropped(self, monkeypatch):
        """A worker whose handshake completes after close() set the closed
        flag is disconnected instead of joining a closed coordinator."""
        coord = RemoteCoordinator(min_workers=1, heartbeat=0.5)
        accepted = threading.Event()
        release = threading.Event()
        recv = FramedConnection.recv

        def slow_hello(conn):
            message = recv(conn)
            if message[0] == "hello":
                accepted.set()
                release.wait(timeout=5)
            return message

        monkeypatch.setattr(FramedConnection, "recv", slow_hello)
        worker = _start_worker(coord.address)
        assert accepted.wait(timeout=5)
        closer = threading.Thread(target=coord.close)
        closer.start()
        while not coord._closed:
            time.sleep(0.01)
        release.set()
        closer.join(timeout=10)
        worker.join(timeout=5)
        assert not closer.is_alive() and not worker.is_alive()
        assert not coord._accepter.is_alive()
        assert coord.workers_joined == 0 and coord._workers == []

    def test_worker_error_carries_remote_traceback(self):
        with RemoteCoordinator(min_workers=1, heartbeat=0.5) as coord:
            thread = _start_worker(coord.address)
            with pytest.raises(RemoteTaskError, match="exploded"):
                coord.map(_boom, [7])
        thread.join(timeout=5)

    def test_no_workers_times_out(self):
        with RemoteCoordinator(
            min_workers=1, heartbeat=0.2, connect_timeout=0.4
        ) as coord:
            with pytest.raises(RuntimeError, match="worker"):
                coord.map(_square, [1])

    def test_version_mismatch_rejected(self):
        with RemoteCoordinator(min_workers=1, heartbeat=0.5) as coord:
            sock = socket.create_connection(coord.address, timeout=5)
            conn = FramedConnection(sock)
            conn.send(("hello", PROTOCOL_VERSION + 1, {}))
            reply = conn.recv()
            assert reply[0] == "reject"
            conn.close()
            assert coord.n_workers() == 0

    def test_lost_worker_shard_is_reassigned(self):
        """A worker that dies mid-shard never loses the shard."""
        with RemoteCoordinator(min_workers=2, heartbeat=0.5) as coord:
            # Fake worker: joins first, accepts exactly one task, dies.
            def fake_worker():
                sock = socket.create_connection(coord.address, timeout=5)
                conn = FramedConnection(sock)
                conn.send(("hello", PROTOCOL_VERSION, {"fake": True}))
                assert conn.recv()[0] == "welcome"
                message = conn.recv()  # the task
                assert message[0] == "task"
                conn.close()  # die without answering

            fake = threading.Thread(target=fake_worker, daemon=True)
            fake.start()
            coord.wait_for_workers(1)
            real = _start_worker(coord.address)
            results = coord.map(_square, [2, 3, 4])
            assert results == [4, 9, 16]
            assert coord.n_workers() == 1  # the fake one was marked dead
        fake.join(timeout=5)
        real.join(timeout=5)

    def test_aborted_map_leftovers_do_not_corrupt_next_map(self):
        """A shard in flight when a map aborts must not leak its result
        into a later map on the same coordinator."""
        with RemoteCoordinator(min_workers=2, heartbeat=0.5) as coord:
            threads = [_start_worker(coord.address) for _ in range(2)]
            with pytest.raises(RemoteTaskError, match="exploded"):
                # One worker errors instantly; the other is still busy
                # with the slow shard when the error aborts the map.
                coord.map(_boom_or_slow, ["boom", "slow"])
            # The slow shard's stale result arrives mid-way through this
            # map (its tasks are slow enough to keep it running past the
            # leftover); it must be discarded, not merged or counted.
            results = coord.map(_slow_square, [5, 6, 7])
            assert results == [25, 36, 49]
            assert coord.n_workers() == 2  # nobody was wrongly declared dead
        for thread in threads:
            thread.join(timeout=5)

    def test_duplicate_completion_counts_once(self):
        """The reassignment race: a presumed-dead worker's result for an
        already-completed shard is discarded, never double-merged."""
        with RemoteCoordinator(min_workers=1, heartbeat=5.0) as coord:
            def worker_answering_twice():
                sock = socket.create_connection(coord.address, timeout=5)
                conn = FramedConnection(sock)
                conn.send(("hello", PROTOCOL_VERSION, {}))
                assert conn.recv()[0] == "welcome"
                for _ in range(3):
                    message = conn.recv()
                    assert message[0] == "task"
                    _, tid, fn, task = message
                    conn.send(("result", tid, fn(task), 0.0))
                    # Duplicate completion with a poisoned payload: the
                    # coordinator must keep the first copy only.
                    conn.send(("result", tid, -1, 0.0))
                conn.close()

            thread = threading.Thread(target=worker_answering_twice, daemon=True)
            thread.start()
            seen = []
            results = coord.map(_square, [2, 3, 4], on_result=seen.append)
            assert results == [4, 9, 16]
            assert seen == [4, 9, 16]  # on_result fired exactly once per shard
            assert len(coord.dispatch_overhead_s) == 3
        thread.join(timeout=5)

    def test_late_worker_can_join_running_map(self):
        with RemoteCoordinator(
            min_workers=1, heartbeat=0.5, connect_timeout=30
        ) as coord:
            workers = [_start_worker(coord.address)]

            def start_late():
                time.sleep(0.3)
                workers.append(_start_worker(coord.address))

            late = threading.Thread(target=start_late, daemon=True)
            late.start()
            # Eight 0.4 s shards keep one worker busy for 3.2 s, well past
            # the late start, so the map is still running when it dials in.
            results = coord.map(_slow_square, list(range(8)))
            assert results == [i * i for i in range(8)]
            late.join(timeout=5)
            assert coord.workers_joined == 2
        for thread in workers:
            thread.join(timeout=5)
            assert not thread.is_alive()


class TestRemoteExecutor:
    def test_properties(self):
        ex = ParallelExecutor(backend="remote", min_workers=2)
        assert not ex.runs_inline
        assert ex.cross_process

    def test_address_requires_remote_backend(self):
        with pytest.raises(AttributeError, match="remote"):
            ParallelExecutor(n_workers=2, backend="thread").address

    def test_mc_bit_identical_to_serial(self, problem):
        reference = brute_force_monte_carlo(
            problem.metric, problem.spec, 3000,
            dimension=problem.dimension, rng=9,
            chunk_size=250, shard_size=250, n_workers=1, backend="serial",
        )
        counted = CountedMetric(problem.metric, problem.dimension)
        with ParallelExecutor(
            backend="remote", min_workers=2, heartbeat=0.5
        ) as ex:
            threads = [_start_worker(ex.address) for _ in range(2)]
            remote = brute_force_monte_carlo(
                counted, problem.spec, 3000,
                dimension=problem.dimension, rng=9,
                chunk_size=250, shard_size=250, executor=ex,
            )
        assert remote.failure_probability == reference.failure_probability
        np.testing.assert_array_equal(
            remote.trace.estimate, reference.trace.estimate
        )
        # cross_process: counts come home inside shard results and fold.
        assert counted.count == 3000
        hosts = remote.extras["worker_hosts"]
        assert sum(h["n_shards"] for h in hosts) == 12
        for thread in threads:
            thread.join(timeout=5)

    def test_remote_run_feeds_checkpoint_ledger(self, problem, tmp_path):
        """Socket backend + ledger: kill-free end-to-end resume check."""
        with ParallelExecutor(
            backend="remote", min_workers=2, heartbeat=0.5
        ) as ex:
            threads = [_start_worker(ex.address) for _ in range(2)]
            first = brute_force_monte_carlo(
                problem.metric, problem.spec, 2000,
                dimension=problem.dimension, rng=9,
                chunk_size=250, shard_size=250, executor=ex,
                checkpoint_dir=tmp_path,
            )
        for thread in threads:
            thread.join(timeout=5)
        assert first.extras["resume"]["shards_recorded"] == 8
        # Resume locally: the socket run's shards replay bit-identically.
        counted = CountedMetric(problem.metric, problem.dimension)
        resumed = brute_force_monte_carlo(
            counted, problem.spec, 2000,
            dimension=problem.dimension, rng=9,
            chunk_size=250, shard_size=250, n_workers=2, backend="thread",
            checkpoint_dir=tmp_path,
        )
        assert counted.count == 0
        assert resumed.failure_probability == first.failure_probability
        np.testing.assert_array_equal(
            resumed.trace.estimate, first.trace.estimate
        )


class TestWorkerCli:
    def test_cli_worker_serves_a_map(self, problem):
        """`python -m repro worker` end-to-end over a real subprocess."""
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        with ParallelExecutor(
            backend="remote", min_workers=1, heartbeat=0.5
        ) as ex:
            host, port = ex.address
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--connect", f"{host}:{port}", "--retries", "10",
                ],
                env=env, cwd=os.getcwd(),
            )
            try:
                result = brute_force_monte_carlo(
                    problem.metric, problem.spec, 1000,
                    dimension=problem.dimension, rng=3,
                    chunk_size=250, shard_size=250, executor=ex,
                )
            finally:
                ex.close()
                proc.wait(timeout=30)
        reference = brute_force_monte_carlo(
            problem.metric, problem.spec, 1000,
            dimension=problem.dimension, rng=3,
            chunk_size=250, shard_size=250, n_workers=1, backend="serial",
        )
        assert proc.returncode == 0
        assert result.failure_probability == reference.failure_probability
