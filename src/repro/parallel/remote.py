"""Socket transport: shard fan-out to workers on other machines.

The process backend caps a run at one machine's cores.  This module lifts
that cap with the smallest possible protocol: a coordinator listens on a
TCP socket, ``repro worker --connect host:port`` processes dial in, and
shard tasks travel as length-prefixed pickle (protocol 5) frames with
numpy buffers shipped out-of-band — the same zero-copy framing
``multiprocessing`` uses internally, but over a socket the operator
controls.  Because tasks carry their own spawn-indexed child streams, the
merged result is bit-identical to the serial/thread/process backends no
matter which worker computes which shard.

Wire format: every message is ``>IQ`` (buffer count, payload length),
the pickled payload, then each out-of-band buffer as ``>Q`` length +
raw bytes.  Messages are small tagged tuples::

    ("hello", version, host_stamp)        worker -> coordinator, once
    ("welcome", version, heartbeat_s)     coordinator -> worker, once
    ("task", id, fn, task)                coordinator -> worker
    ("result", id, result, wall_s)        worker -> coordinator
    ("error", id, message, traceback)     worker -> coordinator

The task ``id`` is opaque to workers (echoed back verbatim); the
coordinator encodes ``(map generation, shard index)`` in it so stale
completions — shards in flight when an earlier ``map`` aborted, or
duplicates of shards reassigned away from a presumed-dead worker — are
recognised and discarded instead of corrupting a later merge.
    ("beat", ts)                          worker -> coordinator, periodic
    ("drain",) / ("shutdown",)            coordinator -> worker

Elasticity: workers may join at any time (the coordinator waits for
``min_workers`` before dispatching); each worker heartbeats every
``heartbeat`` seconds, and a worker that goes silent for
``DEAD_AFTER_BEATS`` intervals — or whose socket errors — is declared
dead and its in-flight shard is reassigned to a live worker.  Ctrl-C in
the coordinator drains workers gracefully (they finish nothing new and
exit) before the interrupt propagates.

**Security note: trusted networks only.**  The protocol is pickle over an
unauthenticated TCP socket — anyone who can reach the port can execute
arbitrary code in the worker (that is literally the feature).  Bind to
``127.0.0.1`` (the default), a private interface, or tunnel through SSH;
never expose the port to an untrusted network.
"""

from __future__ import annotations

import io
import pickle
import queue
import socket
import struct
import threading
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

from repro.parallel.ledger import host_stamp
from repro.telemetry import context as _telemetry
from repro.telemetry import logs

#: Protocol version; handshake rejects a mismatch outright.
PROTOCOL_VERSION = 1

#: Missed-heartbeat multiplier before a silent worker is declared dead.
DEAD_AFTER_BEATS = 3.0

#: Seconds ``RemoteCoordinator.close`` waits for each of its threads.
_CLOSE_JOIN_S = 5.0

_HEADER = struct.Struct(">IQ")
_BUFLEN = struct.Struct(">Q")


def parse_address(address) -> Tuple[str, int]:
    """Accept ``"host:port"`` strings or ``(host, port)`` pairs."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port:
            raise ValueError(
                f"address must look like 'host:port', got {address!r}"
            )
        return host, int(port)
    host, port = address
    return str(host), int(port)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FramedConnection:
    """Length-prefixed pickle-5 messages over one socket.

    Sends are lock-guarded (the worker's heartbeat thread and its result
    path share the socket); receives are single-reader by construction
    (one receiver thread per connection).
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._send_lock = threading.Lock()
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP socket (e.g. AF_UNIX in tests): nothing to tune

    def send(self, message) -> None:
        buffers: List[pickle.PickleBuffer] = []
        payload = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
        raws = [buf.raw() for buf in buffers]
        out = io.BytesIO()
        out.write(_HEADER.pack(len(raws), len(payload)))
        out.write(payload)
        for raw in raws:
            out.write(_BUFLEN.pack(raw.nbytes))
            out.write(raw)
        with self._send_lock:
            self.sock.sendall(out.getvalue())

    def recv(self):
        n_buffers, payload_len = _HEADER.unpack(
            _recv_exact(self.sock, _HEADER.size)
        )
        payload = _recv_exact(self.sock, payload_len)
        buffers = []
        for _ in range(n_buffers):
            (size,) = _BUFLEN.unpack(_recv_exact(self.sock, _BUFLEN.size))
            buffers.append(_recv_exact(self.sock, size))
        return pickle.loads(payload, buffers=buffers)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _split_tid(tid) -> Tuple[int, int]:
    """Split a wire task id into ``(generation, index)``.

    Ids are opaque to workers (echoed back verbatim), so anything
    malformed maps to ``(-1, -1)`` — a generation no live ``map`` ever
    uses — and is discarded rather than trusted.
    """
    if isinstance(tid, tuple) and len(tid) == 2:
        return int(tid[0]), int(tid[1])
    return (-1, -1)


class RemoteTaskError(RuntimeError):
    """A shard raised on a remote worker; carries the remote traceback."""


class _Worker:
    """Coordinator-side record of one connected worker."""

    def __init__(self, conn: FramedConnection, meta: dict, name: str):
        self.conn = conn
        self.meta = meta
        self.name = name
        self.alive = True
        self.joined_at = time.monotonic()
        self.last_seen = time.monotonic()
        #: In-flight ``(generation, index)`` task id, or ``None`` when idle.
        self.current: Optional[Tuple[int, int]] = None
        self.sent_at: float = 0.0
        self.completed = 0
        #: Cumulative simulations reported in this worker's shard results.
        self.sims = 0
        #: The thread running the coordinator's receive loop for it.
        self.receiver: Optional[threading.Thread] = None


class RemoteCoordinator:
    """Listen for workers and fan shard maps out over their sockets.

    Usually owned by ``ParallelExecutor(backend="remote")``; direct use is
    the same two calls: construct (binds and starts accepting) and
    :meth:`map`.  ``port=0`` picks a free port — read :attr:`address`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        min_workers: int = 1,
        heartbeat: float = 5.0,
        connect_timeout: float = 60.0,
    ):
        self.min_workers = max(int(min_workers), 1)
        self.heartbeat = float(heartbeat)
        self.connect_timeout = float(connect_timeout)
        self._listener = socket.create_server((host, int(port)))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._inbox: "queue.Queue" = queue.Queue()
        self._join_cond = threading.Condition()
        self._closed = False
        self._generation = 0
        self.dispatch_overhead_s: List[float] = []
        self.workers_joined = 0
        self.workers_lost = 0
        self.shards_requeued = 0
        self._accepter = threading.Thread(
            target=self._accept_loop, name="repro-remote-accept", daemon=True
        )
        self._accepter.start()

    # -------------------------------------------------------- connections
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                conn = FramedConnection(sock)
                hello = conn.recv()
                if hello[0] != "hello" or hello[1] != PROTOCOL_VERSION:
                    conn.send(("reject", PROTOCOL_VERSION))
                    conn.close()
                    continue
                conn.send(("welcome", PROTOCOL_VERSION, self.heartbeat))
            except (OSError, ConnectionError, pickle.UnpicklingError):
                sock.close()
                continue
            worker = _Worker(conn, hello[2], name=f"{peer[0]}:{peer[1]}")
            worker.receiver = threading.Thread(
                target=self._receive_loop,
                args=(worker,),
                name=f"repro-remote-recv-{worker.name}",
                daemon=True,
            )
            with self._lock:
                if self._closed:
                    # The handshake finished after close() took the worker
                    # list: nobody would ever close this connection.
                    conn.close()
                    return
                self._workers.append(worker)
                self.workers_joined += 1
                worker.receiver.start()
            _telemetry.count("remote.workers_joined", 1)
            logs.info(
                "remote worker joined",
                worker=worker.name,
                hostname=worker.meta.get("hostname"),
                pid=worker.meta.get("pid"),
                cpu_count=worker.meta.get("cpu_count"),
            )
            with self._join_cond:
                self._join_cond.notify_all()
            self._inbox.put(("joined", worker))

    def _receive_loop(self, worker: _Worker) -> None:
        try:
            while True:
                message = worker.conn.recv()
                worker.last_seen = time.monotonic()
                if message[0] in ("result", "error"):
                    self._inbox.put((message[0], worker, message))
                # beats only refresh last_seen
        except (ConnectionError, OSError, EOFError, pickle.UnpicklingError):
            self._inbox.put(("lost", worker))

    def _live_workers(self) -> List[_Worker]:
        with self._lock:
            return [w for w in self._workers if w.alive]

    def n_workers(self) -> int:
        return len(self._live_workers())

    def wait_for_workers(self, count: Optional[int] = None) -> None:
        """Block until ``count`` (default ``min_workers``) workers joined.

        The accept loop notifies ``_join_cond`` on every join, so this
        sleeps between joins instead of polling (recycling inbox events
        here would hot-spin whenever anything — e.g. the first of two
        awaited joins — is already queued).
        """
        count = self.min_workers if count is None else int(count)
        deadline = time.monotonic() + self.connect_timeout
        with self._join_cond:
            while self.n_workers() < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"remote backend: only {self.n_workers()} of {count} "
                        f"worker(s) connected to {self.address[0]}:"
                        f"{self.address[1]} within {self.connect_timeout:.0f}s"
                    )
                self._join_cond.wait(timeout=min(remaining, 1.0))

    def _mark_dead(self, worker: _Worker) -> Optional[Tuple[int, int]]:
        """Declare a worker dead; return its in-flight task id, if any."""
        with self._lock:
            if not worker.alive:
                return None
            worker.alive = False
            self.workers_lost += 1
            orphan, worker.current = worker.current, None
        worker.conn.close()
        _telemetry.count("remote.workers_lost", 1)
        logs.warning(
            "remote worker presumed dead",
            worker=worker.name,
            hostname=worker.meta.get("hostname"),
            pid=worker.meta.get("pid"),
            last_seen_s=round(time.monotonic() - worker.last_seen, 3),
            in_flight=orphan,
        )
        return orphan

    # --------------------------------------------------------------- map
    def map(
        self,
        fn: Callable,
        tasks: Sequence,
        on_result: Optional[Callable] = None,
    ) -> List:
        """Run ``fn`` over ``tasks`` on the connected workers.

        Results come back in serial order (index order), exactly like the
        pool backends; ``on_result`` fires in *completion* order as each
        shard lands, which is what feeds the ledger writer incrementally.
        Dead workers' in-flight shards are re-queued for the survivors; if
        every worker dies, the call waits ``connect_timeout`` for a new
        one to join before giving up.

        Task ids carry a per-``map`` generation: a completion that was
        already in flight when a previous ``map`` aborted (or when its
        worker was declared dead and the shard reassigned) is discarded
        instead of corrupting this run's merge or firing ``on_result``
        twice for one shard.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self._generation += 1
        generation = self._generation
        self.wait_for_workers()
        pending: List[int] = list(range(len(tasks)))
        results: List = [None] * len(tasks)
        completed: set = set()
        last_progress = time.monotonic()
        try:
            while len(completed) < len(tasks):
                pending = self._dispatch(fn, tasks, pending, generation, completed)
                try:
                    event = self._inbox.get(timeout=min(self.heartbeat, 1.0))
                except queue.Empty:
                    event = None
                now = time.monotonic()
                if event is not None:
                    kind = event[0]
                    if kind == "result":
                        _, worker, message = event
                        _, tid, payload, wall_s = message
                        if worker.current == tid:
                            worker.current = None  # idle again either way
                        gen_id, index = _split_tid(tid)
                        if gen_id != generation:
                            # Leftover from an earlier map() on this
                            # coordinator (in flight when that run
                            # aborted): the payload belongs to a dead run.
                            _telemetry.count("remote.stale_results", 1)
                        elif index in completed:
                            # The original owner was declared dead and the
                            # shard reassigned, but its result was already
                            # queued.  Both copies are bit-identical; only
                            # the first one counts.
                            _telemetry.count("remote.duplicate_results", 1)
                        else:
                            worker.completed += 1
                            worker.sims += int(
                                getattr(payload, "n_sims", 0) or 0
                            )
                            overhead = max((now - worker.sent_at) - wall_s, 0.0)
                            self.dispatch_overhead_s.append(overhead)
                            results[index] = payload
                            completed.add(index)
                            last_progress = now
                            if on_result is not None:
                                on_result(payload)
                    elif kind == "error":
                        _, worker, message = event
                        _, tid, text, remote_tb = message
                        if worker.current == tid:
                            worker.current = None
                        gen_id, index = _split_tid(tid)
                        if gen_id == generation and index not in completed:
                            raise RemoteTaskError(
                                f"shard {index} failed on worker "
                                f"{worker.name}: {text}\n--- remote "
                                f"traceback ---\n{remote_tb}"
                            )
                    elif kind == "lost":
                        orphan = self._mark_dead(event[1])
                        self._requeue(orphan, generation, completed, pending)
                    elif kind == "joined":
                        last_progress = now
                # Heartbeat staleness: a worker that stopped beating is
                # dead even if its socket never errored (partition, D
                # state); reclaim its shard.
                for worker in self._live_workers():
                    if now - worker.last_seen > DEAD_AFTER_BEATS * self.heartbeat:
                        orphan = self._mark_dead(worker)
                        self._requeue(orphan, generation, completed, pending)
                if not self._live_workers() and len(completed) < len(tasks):
                    if now - last_progress > self.connect_timeout:
                        raise RuntimeError(
                            "remote backend: all workers died and none "
                            f"rejoined within {self.connect_timeout:.0f}s "
                            f"({len(completed)}/{len(tasks)} shards completed)"
                        )
        except KeyboardInterrupt:
            self.drain()
            raise
        return results

    def _requeue(
        self,
        orphan: Optional[Tuple[int, int]],
        generation: int,
        completed: set,
        pending: List[int],
    ) -> None:
        """Put a dead worker's in-flight shard back on the queue, once."""
        if orphan is None:
            return
        gen_id, index = _split_tid(orphan)
        if gen_id != generation or index in completed or index in pending:
            return
        pending.insert(0, index)
        with self._lock:
            self.shards_requeued += 1
        _telemetry.count("remote.shards_requeued", 1)
        logs.info(
            "remote shard requeued",
            shard=index,
            pending=len(pending),
            completed=len(completed),
        )

    def _dispatch(
        self,
        fn,
        tasks,
        pending: List[int],
        generation: int,
        completed: set,
    ) -> List[int]:
        remaining = [i for i in pending if i not in completed]
        for worker in self._live_workers():
            if not remaining:
                break
            if worker.current is not None:
                continue
            index = remaining.pop(0)
            try:
                worker.current = (generation, index)
                worker.sent_at = time.monotonic()
                worker.conn.send(
                    ("task", (generation, index), fn, tasks[index])
                )
            except (OSError, ConnectionError):
                worker.current = None
                remaining.insert(0, index)
                self._mark_dead(worker)
        return remaining

    # ----------------------------------------------------------- teardown
    def _broadcast(self, message) -> None:
        for worker in self._live_workers():
            try:
                worker.conn.send(message)
            except (OSError, ConnectionError):
                self._mark_dead(worker)

    def drain(self) -> None:
        """Ask every worker to finish its current shard and exit."""
        _telemetry.count("remote.drains", 1)
        logs.info(
            "remote fleet draining",
            workers=self.n_workers(),
            address=f"{self.address[0]}:{self.address[1]}",
        )
        self._broadcast(("drain",))

    # -------------------------------------------------------- fleet health
    def fleet_snapshot(self) -> dict:
        """Per-worker health for the observability exporter.

        Pure read (one lock acquisition, no socket traffic): heartbeat
        ages, in-flight shards, cumulative shard/sim tallies per worker
        plus coordinator-level join/loss/requeue counts and aggregate
        dispatch overhead.
        """
        now = time.monotonic()
        with self._lock:
            workers = list(self._workers)
            joined = self.workers_joined
            lost = self.workers_lost
            requeued = self.shards_requeued
        overhead = list(self.dispatch_overhead_s)
        return {
            "address": f"{self.address[0]}:{self.address[1]}",
            "counts": {
                "connected": sum(1 for w in workers if w.alive),
                "alive": sum(
                    1
                    for w in workers
                    if w.alive
                    and now - w.last_seen
                    <= DEAD_AFTER_BEATS * self.heartbeat
                ),
                "joined": joined,
                "lost": lost,
                "requeued": requeued,
            },
            "dispatch_overhead_s": {
                "count": len(overhead),
                "sum": float(sum(overhead)),
            },
            "workers": [
                {
                    "worker": w.name,
                    "hostname": w.meta.get("hostname"),
                    "pid": w.meta.get("pid"),
                    "cpu_count": w.meta.get("cpu_count"),
                    "alive": bool(w.alive),
                    "heartbeat_age_s": max(now - w.last_seen, 0.0),
                    "uptime_s": max(now - w.joined_at, 0.0),
                    "in_flight": 0 if w.current is None else 1,
                    "shards_completed": int(w.completed),
                    "sims_completed": int(w.sims),
                }
                for w in workers
            ],
        }

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            self._closed = True
        self._broadcast(("shutdown",))
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux, and the port keeps accepting until that
        # thread lets go of it; shutting it down first does both.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._accepter.join(timeout=_CLOSE_JOIN_S)
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.alive = False
            worker.conn.close()
        for worker in workers:
            worker.receiver.join(timeout=_CLOSE_JOIN_S)

    def __enter__(self) -> "RemoteCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# --------------------------------------------------------------- worker
def run_worker(
    host: str,
    port: int,
    heartbeat: Optional[float] = None,
    retries: int = 0,
    retry_delay: float = 1.0,
) -> int:
    """Connect to a coordinator and serve shard tasks until told to stop.

    This is the body of ``repro worker --connect host:port``.  Returns the
    number of tasks completed (the CLI maps it to exit status 0).  A
    heartbeat thread keeps beating while a task computes, so long shards
    never read as death.
    """
    completed = 0
    attempts = 0
    while True:
        try:
            sock = socket.create_connection((host, int(port)), timeout=30.0)
        except OSError:
            attempts += 1
            if attempts > retries:
                raise
            time.sleep(retry_delay)
            continue
        sock.settimeout(None)
        conn = FramedConnection(sock)
        try:
            conn.send(("hello", PROTOCOL_VERSION, host_stamp()))
            welcome = conn.recv()
        except (ConnectionError, OSError, EOFError):
            conn.close()
            return completed  # the coordinator closed before welcoming us
        if welcome[0] != "welcome":
            conn.close()
            raise RuntimeError(
                f"coordinator rejected the connection: {welcome!r}"
            )
        interval = float(heartbeat or welcome[2])
        stop = threading.Event()

        def _beat() -> None:
            while not stop.wait(interval):
                try:
                    conn.send(("beat", time.time()))
                except (OSError, ConnectionError):
                    return

        beater = threading.Thread(
            target=_beat, name="repro-worker-beat", daemon=True
        )
        beater.start()
        try:
            while True:
                message = conn.recv()
                kind = message[0]
                if kind == "task":
                    _, task_id, fn, task = message
                    t0 = time.perf_counter()
                    try:
                        result = fn(task)
                    except BaseException as exc:
                        conn.send((
                            "error",
                            task_id,
                            f"{type(exc).__name__}: {exc}",
                            traceback.format_exc(),
                        ))
                        if isinstance(exc, KeyboardInterrupt):
                            raise
                        continue
                    wall = time.perf_counter() - t0
                    conn.send(("result", task_id, result, wall))
                    completed += 1
                    # Worker-local observability (only when this worker
                    # process opted in, e.g. ``repro worker
                    # --metrics-port``): shard tallies for its own
                    # /metrics endpoint.
                    _telemetry.count("worker.tasks_completed", 1)
                    _telemetry.observe("worker.task_seconds", wall)
                    _telemetry.shard_results(
                        getattr(fn, "__name__", str(fn)), (result,)
                    )
                elif kind == "ping":
                    conn.send(("pong",))
                elif kind in ("drain", "shutdown"):
                    return completed
                # unknown kinds are ignored for forward compatibility
        except (ConnectionError, OSError, EOFError):
            return completed  # coordinator went away: normal end of run
        except KeyboardInterrupt:
            return completed
        finally:
            stop.set()
            conn.close()
