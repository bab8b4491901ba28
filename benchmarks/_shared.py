"""Shared infrastructure for the benchmark harness.

Several of the paper's tables and figures are different views of the same
experiment (Figs. 6, 7 and Table I all come from one method panel on the
noise margins; Fig. 12, Table II and Fig. 13 from one panel on the read
current), so the panels are computed once per pytest session and cached
here.  Every bench writes its reproduction report both to stdout and to
``benchmarks/results/<name>.txt``.

Budgets scale with the ``REPRO_BENCH_SCALE`` environment variable
(default 1.0); e.g. ``REPRO_BENCH_SCALE=0.2 pytest benchmarks/`` runs a
fast smoke pass.  Setting ``REPRO_BENCH_TRACE=<dir>`` records telemetry
for each cached panel and writes a Chrome trace plus a JSONL event stream
per panel into that directory (tracing never changes the panel numbers).
"""

from __future__ import annotations

import contextlib
import os
import platform
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.analysis.experiments import compare_methods
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.sram.problems import (
    read_current_problem,
    read_noise_margin_problem,
    write_noise_margin_problem,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Global budget multiplier.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Optional directory for per-panel telemetry traces.
TRACE_DIR = os.environ.get("REPRO_BENCH_TRACE", "")


@contextlib.contextmanager
def panel_tracing(name: str):
    """Record a cached panel's telemetry when ``REPRO_BENCH_TRACE`` is set.

    Writes ``<dir>/<name>.trace.json`` (Chrome) and ``<dir>/<name>.jsonl``
    on exit; a no-op (one ``if`` per panel) when the variable is empty.
    """
    if not TRACE_DIR:
        yield None
        return
    out = Path(TRACE_DIR)
    out.mkdir(parents=True, exist_ok=True)
    recorder = telemetry.Recorder(run_id=f"bench-{name}")
    with telemetry.activate(recorder):
        yield recorder
    recorder.meta["manifest"] = telemetry.build_manifest(
        command="benchmarks", problem=name, extra={"scale": SCALE}
    )
    telemetry.write_chrome_trace(recorder, out / f"{name}.trace.json")
    telemetry.write_jsonl(recorder, out / f"{name}.jsonl")


def scaled(n: int, minimum: int = 2) -> int:
    return max(int(n * SCALE), minimum)


def bench_metadata(**extra) -> dict:
    """Environment stamp for every ``BENCH_*.json`` payload.

    Benchmark numbers are meaningless without the machine and library
    stack that produced them, so each writer embeds this record under an
    ``"environment"`` key.  Keyword arguments extend (and may override)
    the base fields for bench-specific context.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    record = {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "bench_scale": SCALE,
    }
    record.update(extra)
    return record


def interleaved_min(calls: dict, rounds: int) -> dict:
    """Best wall time (s) of each zero-argument callable in ``calls``.

    Every round times each callable once, in rotation, so slow drift of a
    shared machine hits all of them alike; each reports its fastest round.
    """
    best = {name: float("inf") for name in calls}
    for _ in range(rounds):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def write_report(name: str, text: str) -> None:
    """Print a bench report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


_PROBLEMS = {
    "rnm": read_noise_margin_problem,
    "wnm": write_noise_margin_problem,
    "iread": read_current_problem,
}


@lru_cache(maxsize=None)
def problem(name: str):
    return _PROBLEMS[name]()


@lru_cache(maxsize=None)
def noise_margin_panel(metric_name: str):
    """Four-method panel on a 6-D noise-margin problem (Figs. 6-11, Table I)."""
    with panel_tracing(f"panel-{metric_name}"):
        return compare_methods(
            problem(metric_name),
            seed=2011,
            n_second_stage=scaled(100_000, 2000),
            n_gibbs=scaled(400, 50),
            n_exploration=scaled(5000, 500),
            doe_budget=scaled(1000, 200),
            store_samples=True,
        )


@lru_cache(maxsize=None)
def read_current_panel():
    """Four-method panel on the 2-D read-current problem (Fig. 12, Table II,
    Fig. 13)."""
    with panel_tracing("panel-iread"):
        return compare_methods(
            problem("iread"),
            seed=2012,
            n_second_stage=scaled(10_000, 1000),
            n_gibbs=scaled(400, 50),
            n_exploration=scaled(5000, 500),
            doe_budget=scaled(1000, 200),
            store_samples=True,
        )


@lru_cache(maxsize=None)
def read_current_golden():
    """Golden brute-force Monte Carlo for Table II.

    8.7 million raw samples — the same count the paper's golden run used.
    """
    prob = problem("iread")
    return brute_force_monte_carlo(
        prob.metric, prob.spec, scaled(8_700_000, 200_000), rng=87
    )
