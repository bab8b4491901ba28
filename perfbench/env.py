"""Process environment: thread pinning, the environment stamp, peak RSS.

:func:`pin_threads` must run before numpy is first imported: BLAS and
OpenMP read their thread counts once, at load time.  Pinning them to one
thread keeps two pool workers on two cores from oversubscribing them (an
unpinned OpenBLAS also slows the small per-call solves of the first
stage).
"""

from __future__ import annotations

import contextlib
import os
import platform
import sys
import threading
from typing import Dict, List

#: BLAS/OpenMP thread-count variables pinned to one thread.
#: Seconds each lane stays on one CPU under :func:`rotate_cpus`.
ROTATE_PERIOD_S = 0.25
#: Pool workers per workload (fewer where fewer CPUs are usable).
POOL_WORKERS = 2

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread (call before numpy loads)."""
    for name in THREAD_VARS:
        os.environ[name] = "1"


def affinity() -> List[int]:
    """CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return list(range(os.cpu_count() or 1))


@contextlib.contextmanager
def rotate_cpus(lanes: List[int]):
    """Move each lane round-robin over the usable CPUs, in step.

    ``lanes`` are thread or process ids of the job's busy threads (a
    single-threaded job's own thread, or the pool workers).  Left alone,
    a busy thread stays on whichever CPU the scheduler first gave it, and
    on a shared host the vCPUs can run at persistently different speeds
    (one vCPU of a two-vCPU cloud VM measured ~30% slower than the other
    for minutes at a time), so wall time would depend on that placement.
    Rotating every :data:`ROTATE_PERIOD_S` gives every lane the same mix
    of CPUs.
    """
    cpus = affinity()
    if len(cpus) < 2 or not lanes:
        yield
        return
    stop = threading.Event()

    def place(turn: int) -> None:
        for index, lane in enumerate(lanes):
            try:
                os.sched_setaffinity(lane, {cpus[(index + turn) % len(cpus)]})
            except OSError:  # the lane exited
                pass

    def rotate() -> None:
        turn = 0
        while not stop.wait(ROTATE_PERIOD_S):
            turn += 1
            place(turn)

    place(0)
    mover = threading.Thread(target=rotate, daemon=True)
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()
        for lane in lanes:
            try:
                os.sched_setaffinity(lane, set(cpus))
            except OSError:
                pass


def pool_workers() -> int:
    """Pool size: :data:`POOL_WORKERS`, never more than the usable CPUs."""
    return max(1, min(POOL_WORKERS, len(affinity())))


def stamp(seed: int, default_seed: int, heldout_seed: int) -> Dict[str, object]:
    """The environment every record carries."""
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": int(seed),
        "default_seed": int(default_seed),
        "heldout_seed": int(heldout_seed),
    }


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc``; empty elsewhere)."""
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                found.extend(int(p) for p in fh.read().split())
        except (OSError, ValueError):
            continue
    return found


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live descendants, in MB.

    Each process contributes its own high-water mark (``VmHWM``), so call
    this while pool workers are still alive.  Falls back to this process's
    ``ru_maxrss`` where ``/proc`` is unavailable.
    """
    pid = os.getpid()
    total = _status_kb(pid, "VmHWM")
    if total == 0:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stack = children(pid)
    seen = set()
    while stack:
        child = stack.pop()
        if child in seen:
            continue
        seen.add(child)
        total += _status_kb(child, "VmHWM")
        stack.extend(children(child))
    return total / 1024.0
