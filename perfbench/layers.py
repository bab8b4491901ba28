"""Per-layer metrics of one traced repetition, from its spans and counters.

Busy times (``*_s``) sum span durations over every process, so with two
pool workers they can exceed the wall clock; the waterfall
(:mod:`perfbench.waterfall`) is the view that partitions wall clock.
Layers a workload bypasses read 0 — that is the prediction for a
workload that does not exercise them.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from perfbench.waterfall import SIM_SPAN, ancestors, inclusive_sims, outermost

#: Every per-layer metric: name -> unit.  ``BENCHMARK.json`` lists the
#: same names.
UNITS = {
    # sram (metrics / cell / butterfly) and the Newton solves under it
    "sram.calls": "count",
    "sram.rows_per_call": "rows",
    "sram.ms_per_call": "ms",
    "sram.us_per_row": "us",
    "sram.vtc_s": "s",
    "sram.margin_s": "s",
    "sram.read_state_s": "s",
    "newton.lane_solves": "count",
    "newton.lane_iters": "count",
    "newton.iters_per_solve": "iters",
    # gibbs and modeling
    "gibbs.first_stage_s": "s",
    "gibbs.samples_per_s": "1/s",
    "gibbs.sims_per_sample": "sims",
    "gibbs.start_point_s": "s",
    "gibbs.start_point_sims": "count",
    "bisect.rounds_per_search": "rounds",
    "bisect.sims": "count",
    # stats
    "stats.proposal_fit_s": "s",
    # mc
    "mc.second_stage_s": "s",
    "mc.is_weights_s": "s",
    "mc.run_s": "s",
    "mc.merge_s": "s",
    # parallel
    "parallel.map_s": "s",
    "parallel.shards": "count",
    "parallel.shard_busy_s": "s",
    "parallel.utilization": "ratio",
    "parallel.idle_s": "s",
    "parallel.startup_s": "s",
    "shm.export_bytes": "bytes",
    "merge.chain_shards_s": "s",
    # ledger
    "ledger.record_s": "s",
    "ledger.rows": "count",
    "ledger.bytes": "bytes",
    # service
    "service.job_s": "s",
    "service.queue_wait_s": "s",
    "service.http_overhead_s": "s",
    "service.cache_get_s": "s",
    "service.cache_put_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.warm_hit_ms": "ms",
    # telemetry / obs
    "telemetry.overhead_frac": "ratio",
    # workload accuracy and job latency (0 where a workload has none)
    "sims_to_5pct": "count",
    "rel_err_99": "ratio",
    "pf_log_err": "ratio",
    "cold_job_s": "s",
    "refine_job_s": "s",
    "error_rate": "ratio",
}

#: Per-layer counts that are exact and must repeat for one seed.
EXACT = (
    "sram.calls", "newton.lane_solves", "newton.lane_iters",
    "gibbs.start_point_sims", "bisect.rounds_per_search", "bisect.sims",
    "parallel.shards", "ledger.rows",
)


def layer_metrics(
    spans: List[dict],
    counters: Dict[str, float],
    parent: List[int],
    requests: Sequence[dict] = (),
    ledger_bytes: int = 0,
    startup_s: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric except the cross-run ones (overhead, quality)."""
    names = [s["name"] for s in spans]
    dur = [float(s["dur"]) for s in spans]
    sims = inclusive_sims(spans, parent)

    def busy(name: str) -> float:
        return sum(d for n, d in zip(names, dur) if n == name)

    def outermost_spans(name: str) -> List[int]:
        return [
            i for i, n in enumerate(names)
            if n == name and outermost(spans, parent, i)
        ]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = [i for i, n in enumerate(names) if n == SIM_SPAN]
    rows = sum(float(spans[i]["counters"].get("rows", 0)) for i in calls)
    call_s = sum(dur[i] for i in calls)

    chains = outermost_spans("gibbs.chain")
    samples = sum(float(spans[i]["counters"].get("samples", 0)) for i in chains)
    starts = outermost_spans("gibbs.start_point")

    # The sharded second stage: importance_sampling_estimate's span, plus
    # IS-shard maps issued outside it (the service's refine path).
    second_stage = busy("second_stage") + sum(
        dur[i] for i, n in enumerate(names)
        if n == "parallel.map"
        and spans[i]["attrs"].get("fn") == "run_is_shard"
        and all(names[j] != "second_stage" for j in ancestors(parent, i))
    )

    maps = [i for i, n in enumerate(names) if n == "parallel.map"]
    capacity = sum(
        dur[i] * float(spans[i]["attrs"].get("workers", 1)) for i in maps
    )
    shards = [i for i, n in enumerate(names) if n.startswith("shard.")]
    shard_busy = sum(dur[i] for i in shards)

    job_s = {
        spans[i]["attrs"].get("job"): dur[i]
        for i, n in enumerate(names) if n == "service.job"
    }
    hits = float(counters.get("service.cache.hits", 0))
    misses = float(counters.get("service.cache.misses", 0))
    warm = [r["roundtrip_s"] for r in requests if r["label"] == "warm"]

    solves = float(counters.get("newton.lane_solves", 0))
    iters = float(counters.get("newton.lane_iters", 0))
    searches = float(counters.get("bisect.searches", 0))
    return {
        "sram.calls": float(len(calls)),
        "sram.rows_per_call": ratio(rows, len(calls)),
        "sram.ms_per_call": 1e3 * ratio(call_s, len(calls)),
        "sram.us_per_row": 1e6 * ratio(call_s, rows),
        "sram.vtc_s": busy("sram.vtc"),
        "sram.margin_s": busy("sram.margin"),
        "sram.read_state_s": busy("sram.read_state"),
        "newton.lane_solves": solves,
        "newton.lane_iters": iters,
        "newton.iters_per_solve": ratio(iters, solves),
        "gibbs.first_stage_s": busy("gibbs.first_stage"),
        "gibbs.samples_per_s": ratio(samples, sum(dur[i] for i in chains)),
        "gibbs.sims_per_sample": ratio(sum(sims[i] for i in chains), samples),
        "gibbs.start_point_s": sum(dur[i] for i in starts),
        "gibbs.start_point_sims": sum(sims[i] for i in starts),
        "bisect.rounds_per_search": ratio(
            float(counters.get("bisect.rounds", 0)), searches
        ),
        "bisect.sims": float(counters.get("bisect.sims", 0)),
        "stats.proposal_fit_s": busy("stats.proposal_fit"),
        "mc.second_stage_s": second_stage,
        "mc.is_weights_s": busy("mc.is_weights"),
        "mc.run_s": busy("mc.run"),
        "mc.merge_s": busy("merge.mc_shards"),
        "parallel.map_s": busy("parallel.map"),
        "parallel.shards": float(len(shards)),
        "parallel.shard_busy_s": shard_busy,
        "parallel.utilization": ratio(shard_busy, capacity),
        "parallel.idle_s": max(capacity - shard_busy, 0.0),
        "parallel.startup_s": float(startup_s),
        "shm.export_bytes": float(counters.get("shm.export_bytes", 0)),
        "merge.chain_shards_s": busy("merge.chain_shards"),
        "ledger.record_s": busy("ledger.record"),
        "ledger.rows": float(counters.get("ledger.shards_recorded", 0)),
        "ledger.bytes": float(ledger_bytes),
        "service.job_s": sum(job_s.values()),
        "service.queue_wait_s": sum(r["queue_wait_s"] for r in requests),
        "service.http_overhead_s": sum(
            max(r["roundtrip_s"] - job_s.get(r["id"], 0.0), 0.0)
            for r in requests
        ),
        "service.cache_get_s": busy("service.cache_get"),
        "service.cache_put_s": busy("service.cache_put"),
        "service.cache_hit_ratio": ratio(hits, hits + misses),
        "service.warm_hit_ms": 1e3 * statistics.median(warm) if warm else 0.0,
    }
