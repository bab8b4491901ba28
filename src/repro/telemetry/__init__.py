"""Run-wide telemetry: spans, counters and cross-process trace export.

The paper's evaluation is a cost-accounting argument — every figure and
table compares methods by simulation count at a target accuracy — and
the process-parallel fan-out of the execution layer spreads that cost
over workers where ad-hoc prints cannot see it.  This package is the
run-wide instrument:

* :class:`Recorder` — per-run counters, gauges, histograms and
  context-manager **spans** (name, wall time, counters attached at
  exit), thread-safe for the thread backend;
* the **active-recorder fast path** (:func:`span`, :func:`count`,
  :func:`gauge`, :func:`observe`, :func:`shard_results`) — what the hot
  paths call; with no recorder activated each reduces to one ``is None``
  check;
* the recorder's **live view** (:mod:`repro.telemetry.live`): stage
  progress and ETA, throughput, streaming convergence, chain diagnostics
  and fleet health, fed from the recorder's own events and read through
  :meth:`Recorder.status` by the exporters in :mod:`repro.obs`;
* the **worker protocol** (:func:`ship_to_workers`,
  :class:`ShardTelemetry`, :func:`fold_shard_records`) — worker-side
  recorders travel home inside shard result records and fold into the
  parent at merge time, the same pattern as
  :meth:`repro.mc.counter.CountedMetric.add_external`, so process-backend
  runs get exact per-worker attribution;
* **export** — a JSONL event stream (:func:`write_jsonl`) and a Chrome
  ``trace_event`` file (:func:`write_chrome_trace`) plus the run
  :func:`manifest <build_manifest>`;
* the shared injectable **clock** (:mod:`repro.telemetry.clock`) that
  spans and the exporters read;
* the structured CLI **logger** (:mod:`repro.telemetry.logs`) keeping
  stdout machine-parseable.

Telemetry is RNG-free and strictly additive: tracing a run can never
change its sampling results — the parallel layer's bit-identity battery
passes with tracing on and off — and timestamps are explicitly outside
the determinism contract.
"""

from repro.telemetry.clock import get_timer, now, set_timer, use_timer
from repro.telemetry.context import (
    NULL_SPAN,
    ShardTelemetry,
    activate,
    count,
    enabled,
    fold_replayed_records,
    fold_shard_records,
    gauge,
    get_active,
    observe,
    set_active,
    shard_results,
    ship_to_workers,
    span,
)
from repro.telemetry.export import (
    JSONL_SCHEMA,
    chrome_trace_events,
    read_jsonl,
    recorder_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.logs import configure_cli_logging, get_logger
from repro.telemetry.manifest import build_manifest
from repro.telemetry.recorder import Recorder, Span

__all__ = [
    # recorder
    "Recorder",
    "Span",
    # active-recorder fast path
    "activate",
    "get_active",
    "set_active",
    "enabled",
    "span",
    "count",
    "gauge",
    "observe",
    "shard_results",
    "NULL_SPAN",
    # worker protocol
    "ship_to_workers",
    "ShardTelemetry",
    "fold_replayed_records",
    "fold_shard_records",
    # export
    "JSONL_SCHEMA",
    "recorder_events",
    "chrome_trace_events",
    "write_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    "build_manifest",
    # clock
    "now",
    "get_timer",
    "set_timer",
    "use_timer",
    # logging
    "get_logger",
    "configure_cli_logging",
]
