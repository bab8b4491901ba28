"""The active-recorder fast path and the worker-side recorder protocol.

Hot paths never thread a recorder argument around; they call the
module-level helpers here (:func:`span`, :func:`count`, ...), which reduce
to a single ``is None`` check on the process-local active recorder when
telemetry is off.  That one check is the entire disabled-mode overhead —
the no-op guarantee the determinism tests rely on.

Cross-process protocol (mirrors ``CountedMetric.add_external``):

* the **parent** decides per task batch whether workers must record
  locally (:func:`ship_to_workers`: an active recorder *and* an executor
  that actually crosses a process boundary — serial/thread workers share
  the caller's recorder already);
* the **worker** wraps its body in :class:`ShardTelemetry`, which installs
  a fresh recorder when the task asked for one (unconditionally — a
  ``fork``-started worker inherits the parent's recorder object as a dead
  copy, so "is one active?" would lie) and exposes the snapshot to ship
  home in the shard result;
* the **parent** folds the returned records via
  :func:`fold_shard_records` at merge time, giving exact per-worker
  attribution on the process backend and zero double-counting on the
  inline/thread paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.telemetry.recorder import Recorder, Span

_active: Optional[Recorder] = None


def get_active() -> Optional[Recorder]:
    """The process-local active recorder, or ``None`` when telemetry is off."""
    return _active


def set_active(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Install ``recorder`` as the active one; returns the previous."""
    global _active
    previous = _active
    _active = recorder
    return previous


@contextmanager
def activate(recorder: Recorder):
    """Make ``recorder`` the active recorder for the duration of the block."""
    previous = set_active(recorder)
    try:
        yield recorder
    finally:
        set_active(previous)


class _NullSpan:
    """Reusable no-op span returned when no recorder is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, name: str, n=1) -> None:
        pass


NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span on the active recorder; a shared no-op when disabled."""
    recorder = _active
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, **attrs)


def count(name: str, n=1) -> None:
    """Bump a run-wide counter on the active recorder (no-op when off)."""
    recorder = _active
    if recorder is not None:
        recorder.count(name, n)


def gauge(name: str, value) -> None:
    """Record a gauge on the active recorder (no-op when off)."""
    recorder = _active
    if recorder is not None:
        recorder.gauge(name, value)


def observe(name: str, value) -> None:
    """Feed a histogram on the active recorder (no-op when off)."""
    recorder = _active
    if recorder is not None:
        recorder.observe(name, value)


def shard_results(source: str, results, replayed: bool = False) -> None:
    """Report shard results to the active recorder (no-op when off).

    See :meth:`repro.telemetry.Recorder.shard_results`.
    """
    recorder = _active
    if recorder is not None:
        recorder.shard_results(source, results, replayed)


def enabled() -> bool:
    """True when a recorder is active in this process."""
    return _active is not None


def ship_to_workers(executor) -> bool:
    """Parent-side decision: must workers record into their own recorder?

    True only when telemetry is on *and* the executor isolates worker
    state in other processes.  Inline and thread execution share the
    caller's recorder (its mutations are lock-guarded), so shipping there
    would double-count every event.
    """
    return _active is not None and executor.cross_process


class _ShardRecorder(Recorder):
    """A shard task's recorder: its record ships home; no live view."""

    _LIVE = False


class ShardTelemetry:
    """Worker-side recorder scope for one shard task.

    ``enabled`` is the parent's :func:`ship_to_workers` decision carried
    in the task.  When set, a fresh recorder is installed for the task
    body *unconditionally*: under the ``fork`` start method the worker
    inherits the parent's recorder object as a stale copy, so checking
    "is a recorder already active?" would silently record into an object
    that dies with the worker.  The previous (possibly inherited) value
    is restored on exit so pooled workers stay clean between tasks.  The
    task's recorder keeps no live view: only its record matters.
    """

    def __init__(self, enabled: bool, run_id: str = "shard"):
        self._enabled = bool(enabled)
        self._run_id = str(run_id)
        self._recorder: Optional[Recorder] = None
        self._previous: Optional[Recorder] = None

    def __enter__(self) -> "ShardTelemetry":
        if self._enabled:
            self._recorder = _ShardRecorder(run_id=self._run_id)
            self._previous = set_active(self._recorder)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._recorder is not None:
            set_active(self._previous)
        return False

    def record(self) -> Optional[dict]:
        """The worker recorder's snapshot, or ``None`` when not shipping."""
        if self._recorder is None:
            return None
        return self._recorder.to_record()


def fold_shard_records(shard_results) -> None:
    """Fold worker telemetry records from shard results into the parent.

    Called at merge time for cross-process runs only (the caller gates on
    ``executor.cross_process``, exactly like the simulation-count fold);
    a no-op without an active recorder.

    Tolerant by design: shard records replayed from a checkpoint ledger
    may predate the ``telemetry`` field, carry ``None`` (the writing run
    had telemetry off), or be malformed after storage.  Such records are
    *skipped*, never fatal — losing a worker's span attribution must not
    lose the run — and each skip bumps the ``telemetry.folds_skipped``
    counter so the gap is visible in the summary.
    """
    recorder = _active
    if recorder is None:
        return
    for result in shard_results:
        record = getattr(result, "telemetry", None)
        if not record:
            recorder.count("telemetry.folds_skipped", 1)
            continue
        try:
            recorder.fold(record)
        except Exception:
            recorder.count("telemetry.folds_skipped", 1)


def fold_replayed_records(records) -> None:
    """Fold *persisted* telemetry snapshots from a resume ledger.

    Replayed shards ran in an earlier (killed) process, so their counters
    must not masquerade as this run's work — the resumed run's
    ``metric.sims`` counter stays equal to the simulations it actually
    paid for.  Their counters fold under a ``replayed.`` prefix instead,
    and ``ledger.snapshots_folded`` records how many snapshots came home.
    """
    recorder = _active
    if recorder is None:
        return
    folded = 0
    for record in records:
        if not isinstance(record, dict):
            continue
        counters = record.get("counters")
        if not isinstance(counters, dict):
            continue
        for name, value in counters.items():
            try:
                recorder.count(f"replayed.{name}", value)
            except TypeError:
                continue
        folded += 1
    if folded:
        recorder.count("ledger.snapshots_folded", folded)
