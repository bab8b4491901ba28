"""Wall-clock scaling of the process-parallel first-stage Gibbs fan-out.

The workload is the paper's first stage on the 6-D read-noise-margin
problem: 16 lockstep chains fanned out as chain groups over
``n_workers in {1, 2, 4, 8}`` process workers, with a fixed group size so
every row executes the identical shard grid.  Because each chain owns the
spawn-indexed stream at its global chain index, the merged chain is
required to be bit-identical to the inline reference on every row — and,
stronger, to a run with a *different* group size — so the bench doubles as
an end-to-end check of the grouping-invariance contract.

A second section runs the full two-stage flow (fan-out first stage plus
sharded second stage over one persistent pool) serial versus 4 workers.

Headline numbers land in ``BENCH_first_stage_scaling.json`` at the
repository root.  ``cpu_count`` is recorded alongside, and the speedup
floor (2x at 4 workers) is only *enforced* when the machine actually
exposes 4 cores; the equality assertions hold everywhere.
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks._shared import bench_metadata, problem, scaled, write_report
from repro.analysis.tables import format_table
from repro.gibbs.starting_point import find_starting_point
from repro.gibbs.two_stage import (
    _spread_starting_points,
    gibbs_importance_sampling,
    run_first_stage,
)
from repro.mc.counter import CountedMetric
from repro.parallel import ParallelExecutor, default_workers

JSON_PATH = Path(__file__).parent.parent / "BENCH_first_stage_scaling.json"

#: Acceptance floor: >= 2x at 4 workers, enforced only on >= 4 cores.
SPEEDUP_FLOOR = 2.0
FLOOR_WORKERS = 4

N_CHAINS = 16
GROUP_SIZE = 2


def run():
    cpu_count = default_workers()
    prob = problem("rnm")
    n_gibbs = scaled(150, 20)
    counted = CountedMetric(prob.metric, prob.dimension)

    # One starting-point search and spread, shared by every row: the bench
    # times the chain fan-out itself, not Algorithm 4.
    rng = np.random.default_rng(2011)
    start = find_starting_point(
        counted, prob.spec, prob.dimension, rng, doe_budget=scaled(600, 150)
    )
    starts = _spread_starting_points(
        counted, prob.spec, start, N_CHAINS, rng, zeta=8.0, jitter=0.25
    )

    records = []
    reference = None
    for n_workers in (1, 2, 4, 8):
        executor = ParallelExecutor(n_workers=n_workers, backend="process")
        with executor:
            t0 = time.perf_counter()
            merged = run_first_stage(
                counted, prob.spec, starts, n_gibbs, executor,
                coordinate_system="spherical", seed=97,
                chain_group_size=GROUP_SIZE,
            )
            elapsed = time.perf_counter() - t0
        if reference is None:
            reference = merged
        # Determinism contract: every worker count reproduces the inline
        # run bit for bit.
        np.testing.assert_array_equal(merged.samples, reference.samples)
        np.testing.assert_array_equal(
            merged.per_chain_simulations, reference.per_chain_simulations
        )
        records.append({
            "n_workers": n_workers,
            "elapsed_s": elapsed,
            "n_simulations": int(merged.n_simulations),
        })
    for record in records:
        record["speedup_vs_1"] = records[0]["elapsed_s"] / record["elapsed_s"]

    # Grouping invariance: a different group size, same merged chain.
    regrouped = run_first_stage(
        counted, prob.spec, starts, n_gibbs,
        ParallelExecutor(n_workers=2, backend="process"),
        coordinate_system="spherical", seed=97,
        chain_group_size=max(1, GROUP_SIZE * 2),
    )
    np.testing.assert_array_equal(regrouped.samples, reference.samples)

    # End-to-end flow: fan-out first stage + sharded second stage on one
    # persistent pool, serial reference versus 4 workers.
    flow_kwargs = dict(
        dimension=prob.dimension,
        coordinate_system="spherical",
        n_gibbs=n_gibbs,
        n_chains=N_CHAINS,
        n_second_stage=scaled(20_000, 2_000),
        rng=2012,
        chain_group_size=GROUP_SIZE,
    )
    t0 = time.perf_counter()
    flow_1 = gibbs_importance_sampling(
        prob.metric, prob.spec, n_workers=1, **flow_kwargs
    )
    flow_1_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    flow_4 = gibbs_importance_sampling(
        prob.metric, prob.spec, n_workers=4, backend="process", **flow_kwargs
    )
    flow_4_s = time.perf_counter() - t0
    assert flow_4.failure_probability == flow_1.failure_probability
    assert flow_4.n_first_stage == flow_1.n_first_stage

    speedup_4 = records[2]["speedup_vs_1"]
    if cpu_count >= FLOOR_WORKERS:
        assert speedup_4 >= SPEEDUP_FLOOR, (
            f"{FLOOR_WORKERS}-worker first-stage fan-out reached only "
            f"{speedup_4:.2f}x on {cpu_count} cores (floor {SPEEDUP_FLOOR}x)"
        )

    payload = {
        "cpu_count": cpu_count,
        "environment": bench_metadata(),
        "problem": "rnm (read noise margin, M = 6)",
        "n_chains": N_CHAINS,
        "n_gibbs": n_gibbs,
        "chain_group_size": GROUP_SIZE,
        "records": records,
        "chains_identical_across_workers": True,
        "chains_identical_across_groupings": True,
        "flow_n_second_stage": flow_kwargs["n_second_stage"],
        "flow_serial_s": flow_1_s,
        "flow_parallel4_s": flow_4_s,
        "flow_speedup": flow_1_s / flow_4_s,
        "flow_results_identical": True,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_floor_workers": FLOOR_WORKERS,
        "speedup_floor_enforced": cpu_count >= FLOOR_WORKERS,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            r["n_workers"], f"{r['elapsed_s']:.2f}",
            f"{r['speedup_vs_1']:.2f}x", r["n_simulations"],
        ]
        for r in records
    ]
    report = (
        f"machine: {cpu_count} usable core(s)\n\n"
        f"first-stage fan-out, rnm, C = {N_CHAINS} chains x K = {n_gibbs}, "
        f"group size {GROUP_SIZE}, process backend:\n"
        + format_table(["workers", "time [s]", "speedup", "simulations"], rows)
        + "\n\nmerged chains bit-identical across all worker counts and "
        "group sizes: yes\n"
        f"end-to-end flow (both stages, one pool): serial {flow_1_s:.2f}s, "
        f"4 workers {flow_4_s:.2f}s ({flow_1_s / flow_4_s:.2f}x), "
        "results identical\n"
        f"speedup floor ({SPEEDUP_FLOOR}x at {FLOOR_WORKERS} workers) "
        f"{'ENFORCED' if cpu_count >= FLOOR_WORKERS else 'recorded only'} "
        f"on this machine\n"
        f"JSON record: {JSON_PATH.name}"
    )
    write_report("first_stage_scaling", report)


def test_first_stage_scaling(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)


if __name__ == "__main__":
    run()
