"""Per-run telemetry recorder: spans, counters, gauges and histograms.

The paper's whole evaluation is a cost-accounting argument — methods are
compared by simulation count at a target accuracy — and the process-
parallel layer spreads that cost over worker processes where a
``print`` can no longer see it.  :class:`Recorder` is the run-wide
instrument: hot paths attach *counters* (simulations, metric calls,
bisection rounds), stage boundaries open *spans* (name, wall time,
counters attached at exit), and worker-side recorders travel home inside
shard result records to be folded into the parent at merge time — the
same pattern as :meth:`repro.mc.counter.CountedMetric.add_external`, so
process-backend runs get exact per-worker attribution.

The recorder also keeps the run's **live view**
(:class:`~repro.telemetry.live.LiveView`: stage progress, throughput,
streaming convergence, chain diagnostics), fed from its own span-start,
span-finish, gauge and shard-result events; :meth:`Recorder.status` is
the one document ``/metrics``, ``/status`` and ``repro top`` read.

Everything here is RNG-free and additive: recording can never change a
sampling result, and with no recorder activated every instrumented site
reduces to one ``is None`` check (see :mod:`repro.telemetry.context`).
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, Dict, List, Optional, Sequence

from repro.telemetry import clock
from repro.telemetry.live import SPANS, LiveView

#: Retained observations per histogram before stride-doubling decimation
#: kicks in (see :meth:`Recorder.observe`).
_RESERVOIR_CAP = 512


def _quantiles(
    samples, qs: Sequence[float] = (0.5, 0.95)
) -> Dict[float, float]:
    samples = sorted(samples)
    if not samples:
        return {}
    out = {}
    for q in qs:
        rank = max(int(math.ceil(float(q) * len(samples))) - 1, 0)
        out[float(q)] = samples[min(rank, len(samples) - 1)]
    return out


class Span:
    """One timed section: name, wall time, counters attached at exit.

    Used as a context manager (usually via :func:`repro.telemetry.span`);
    ``add`` attaches span-local counters — simulations, samples, bytes —
    that land in the span event when it closes.  Spans record the pid and
    thread id at entry, so shard spans executed by worker processes or
    pool threads stay attributable after the fold.
    """

    __slots__ = (
        "name", "attrs", "counters", "t_start", "t_end", "pid", "tid",
        "_recorder",
    )

    def __init__(self, recorder: "Recorder", name: str, attrs: dict):
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, float] = {}
        self.t_start = 0.0
        self.t_end = 0.0
        self.pid = 0
        self.tid = 0

    def add(self, name: str, n=1) -> None:
        """Attach ``n`` to the span-local counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def __enter__(self) -> "Span":
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.t_start = self._recorder._now()
        self._recorder._start_span(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t_end = self._recorder._now()
        self._recorder._finish_span(self)
        return False

    def to_event(self) -> dict:
        """The span as a plain JSON-friendly event dict."""
        return {
            "type": "span",
            "name": self.name,
            "start": float(self.t_start),
            "dur": float(self.t_end - self.t_start),
            "pid": int(self.pid),
            "tid": int(self.tid),
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
        }


class Recorder:
    """Run-wide telemetry state: counters, gauges, histograms and spans.

    Thread-safe — the thread backend of the parallel layer records from
    several pool threads into the caller's one recorder — and *not*
    process-safe by sharing: a worker process builds its own recorder
    (see :class:`repro.telemetry.context.ShardTelemetry`), serialises it
    with :meth:`to_record` and the parent merges it with :meth:`fold`.

    Parameters
    ----------
    run_id:
        Label stamped on exports; no semantic meaning.
    timer:
        Explicit time source; ``None`` (default) reads the shared
        telemetry clock dynamically, so tests that install a fake timer
        via :func:`repro.telemetry.clock.use_timer` affect spans and the
        live view too.
    """

    #: Whether the recorder keeps a live view.  A shard task's recorder
    #: (:class:`repro.telemetry.context.ShardTelemetry`) only ships its
    #: record home, so it keeps none.
    _LIVE = True

    def __init__(self, run_id: str = "run", timer=None):
        self.run_id = str(run_id)
        self._timer = timer
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> [count, total, min, max]
        self.histograms: Dict[str, List[float]] = {}
        #: name -> retained observations (deterministic decimating
        #: reservoir: every ``stride``-th value is kept, and the stride
        #: doubles whenever the reservoir hits ``_RESERVOIR_CAP``).  The
        #: reservoir is what makes p50/p95 reportable without storing an
        #: unbounded stream; it is approximate for huge streams but exact
        #: up to the cap, and entirely RNG-free.
        self._hist_samples: Dict[str, List[float]] = {}
        self._hist_stride: Dict[str, int] = {}
        self.spans: List[dict] = []
        #: Free-form metadata (the run manifest lands here).
        self.meta: Dict[str, object] = {}
        #: Remote fleet snapshot provider the live view polls (set by a
        #: ``backend="remote"`` map), or ``None``.
        self.fleet: Optional[Callable[[], dict]] = None
        self.pid = os.getpid()
        self.t0 = self._now()
        self._view = LiveView(self._now, self.t0) if self._LIVE else None

    def _now(self) -> float:
        return self._timer() if self._timer is not None else clock.now()

    # ------------------------------------------------------------ metrics
    def count(self, name: str, n=1) -> None:
        """Add ``n`` to the run-wide counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value) -> None:
        """Record the latest value of ``name`` (last write wins)."""
        with self._lock:
            self.gauges[name] = value
            if self._view is not None:
                self._view.gauge(name, value)

    def observe(self, name: str, value) -> None:
        """Fold ``value`` into the histogram summary for ``name``."""
        value = float(value)
        with self._lock:
            h = self.histograms.get(name)
            if h is None:
                self.histograms[name] = [1, value, value, value]
                index = 0
            else:
                index = int(h[0])
                h[0] += 1
                h[1] += value
                h[2] = min(h[2], value)
                h[3] = max(h[3], value)
            stride = self._hist_stride.setdefault(name, 1)
            if index % stride == 0:
                samples = self._hist_samples.setdefault(name, [])
                samples.append(value)
                if len(samples) > _RESERVOIR_CAP:
                    samples[:] = samples[::2]
                    self._hist_stride[name] = stride * 2

    def span(self, name: str, **attrs) -> Span:
        """Open a span; use as ``with recorder.span("stage") as sp:``."""
        return Span(self, name, attrs)

    def _start_span(self, span: Span) -> None:
        if self._view is not None and span.name in SPANS:
            with self._lock:
                self._view.span_started(span)

    def _finish_span(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span.to_event())
            if self._view is not None and span.name in SPANS:
                self._view.span_finished(span)

    def shard_results(self, source: str, results, replayed=False) -> None:
        """Shard results reached the run: live completions, or a replayed
        ledger prefix (``replayed=True``).

        ``source`` is the shard runner's name or the ledger kind; the
        live view credits the results to that stage (see
        :data:`repro.telemetry.live.STAGES`).  Nothing else is recorded.
        """
        if self._view is not None:
            with self._lock:
                self._view.shard_results(source, results, replayed)

    @property
    def n_events(self) -> int:
        """Total recorded items — the disabled-run-is-empty check."""
        with self._lock:
            return (
                len(self.spans) + len(self.counters)
                + len(self.gauges) + len(self.histograms)
            )

    # ----------------------------------------------- cross-process fold-in
    def to_record(self) -> dict:
        """Picklable snapshot a worker ships home in its shard result."""
        with self._lock:
            return {
                "run_id": self.run_id,
                "pid": int(self.pid),
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {k: list(v) for k, v in self.histograms.items()},
                "histogram_samples": {
                    k: list(v) for k, v in self._hist_samples.items()
                },
                "histogram_strides": dict(self._hist_stride),
                "spans": [dict(s) for s in self.spans],
            }

    def fold(self, record: dict) -> None:
        """Merge a worker's :meth:`to_record` snapshot into this recorder.

        Counters add, histograms merge their summaries, spans concatenate
        (each already carries its worker pid/tid), gauges overwrite —
        exactly what a single-process run would have accumulated, so
        parent totals after the fold equal the sum over all recording
        sites on every backend.
        """
        with self._lock:
            for name, n in record.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + n
            for name, value in record.get("gauges", {}).items():
                self.gauges[name] = value
            for name, (n, total, lo, hi) in record.get(
                "histograms", {}
            ).items():
                h = self.histograms.get(name)
                if h is None:
                    self.histograms[name] = [n, total, lo, hi]
                else:
                    h[0] += n
                    h[1] += total
                    h[2] = min(h[2], lo)
                    h[3] = max(h[3], hi)
            strides = record.get("histogram_strides", {})
            for name, incoming in record.get("histogram_samples", {}).items():
                samples = self._hist_samples.setdefault(name, [])
                samples.extend(incoming)
                stride = max(
                    self._hist_stride.get(name, 1), int(strides.get(name, 1))
                )
                while len(samples) > _RESERVOIR_CAP:
                    samples[:] = samples[::2]
                    stride *= 2
                self._hist_stride[name] = stride
            self.spans.extend(record.get("spans", []))

    def percentiles(
        self, name: str, qs: Sequence[float] = (0.5, 0.95)
    ) -> Dict[float, float]:
        """Reservoir-based quantiles of histogram ``name``.

        Exact while the observation count is below the reservoir cap,
        stride-decimated (and thus approximate) beyond it.  Returns an
        empty dict for unknown names.
        """
        with self._lock:
            samples = list(self._hist_samples.get(name, ()))
        return _quantiles(samples, qs)

    # ------------------------------------------------------------- live
    def status(self) -> dict:
        """The live document ``/status``, ``/metrics`` and ``repro top`` read.

        ``snapshot`` is the live view (stages, throughput, convergence,
        chain diagnostics, fleet); ``counters``, ``gauges`` (numeric
        ones, as floats) and ``histograms`` (summary plus p50/p95) are
        the recorder's own metrics, all copied under one lock hold.
        """
        view = self._view
        with self._lock:
            snapshot = view.snapshot() if view is not None else None
            counters = dict(self.counters)
            gauges = {}
            for name, value in self.gauges.items():
                try:
                    gauges[name] = float(value)
                except (TypeError, ValueError):
                    continue
            histograms = {
                name: {
                    "count": int(n), "sum": total, "min": lo, "max": hi,
                    "quantiles": _quantiles(self._hist_samples.get(name, ())),
                }
                for name, (n, total, lo, hi) in self.histograms.items()
            }
        provider = self.fleet
        if snapshot is not None and provider is not None:
            # The provider takes the coordinator's own lock; call it
            # outside ours so the two locks never interleave.
            try:
                snapshot["fleet"] = provider()
            except Exception:
                pass
        return {
            "snapshot": snapshot,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def job_progress(self, job: str) -> List[dict]:
        """Live stage snapshots of one ``service.job`` scope."""
        if self._view is None:
            return []
        with self._lock:
            return self._view.job_snapshot(str(job))

    # ------------------------------------------------------------ reporting
    def summary(self) -> str:
        """Human-readable accounting table (the CLI prints it on -v).

        Spans aggregate by name — occurrence count, total wall time and
        the summed attached counters — followed by run-wide counters,
        gauges and histogram summaries.
        """
        with self._lock:
            spans = list(self.spans)
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            histograms = {k: list(v) for k, v in self.histograms.items()}

        lines = [f"telemetry summary [{self.run_id}]"]
        if spans:
            by_name: Dict[str, list] = {}
            order: List[str] = []
            for event in spans:
                name = event["name"]
                if name not in by_name:
                    by_name[name] = [0, 0.0, {}]
                    order.append(name)
                agg = by_name[name]
                agg[0] += 1
                agg[1] += float(event.get("dur", 0.0))
                for key, value in event.get("counters", {}).items():
                    agg[2][key] = agg[2].get(key, 0) + value
            width = max(len(name) for name in order)
            lines.append(f"  {'span':<{width}}  count   total_s  counters")
            for name in order:
                n, total, cnt = by_name[name]
                attached = " ".join(
                    f"{key}={value:g}" for key, value in sorted(cnt.items())
                )
                lines.append(
                    f"  {name:<{width}}  {n:>5d}  {total:>8.3f}  {attached}"
                )
        if counters:
            width = max(len(name) for name in counters)
            lines.append("  counters")
            for name in sorted(counters):
                lines.append(f"    {name:<{width}}  {counters[name]:g}")
        if gauges:
            width = max(len(name) for name in gauges)
            lines.append("  gauges")
            for name in sorted(gauges):
                lines.append(f"    {name:<{width}}  {gauges[name]}")
        if histograms:
            lines.append("  histograms (count/mean/min/max p50 p95)")
            for name in sorted(histograms):
                n, total, lo, hi = histograms[name]
                mean = total / n if n else 0.0
                pcts = self.percentiles(name)
                tail = ""
                if pcts:
                    tail = (
                        f"  p50={pcts.get(0.5, float('nan')):g}"
                        f" p95={pcts.get(0.95, float('nan')):g}"
                    )
                lines.append(
                    f"    {name}  {int(n)}/{mean:g}/{lo:g}/{hi:g}{tail}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Recorder({self.run_id!r}, {len(self.spans)} spans, "
            f"{len(self.counters)} counters)"
        )
