"""Wall-clock scaling of the process-parallel execution layer.

Two workloads, both dominated by transistor-level metric evaluations:

* the golden brute-force Monte Carlo on the 2-D read-current problem
  (P_f ~ 1.94e-5), sharded across ``n_workers in {1, 2, 4, 8}`` process
  workers.  At the full budget of 1.05M samples it expects ~20 failures
  and asserts at least ``FAILURE_FLOOR`` of them (scaled with
  ``REPRO_BENCH_SCALE``), so "identical across workers" compares real
  estimates rather than zeros;
* the four-method experiment panel on the read-current problem, serial
  versus four panel workers.

The determinism contract is asserted on every row — the sharded estimate,
failure count and convergence trace are required to be bit-identical to
the ``n_workers=1`` reference, whatever the worker count — so the bench
doubles as an end-to-end check that parallelism never buys speed with
different numbers.

Headline numbers land in ``BENCH_parallel_scaling.json`` at the repository
root.  ``cpu_count`` is recorded alongside, and the speedup floor (3x at
8 workers) is only *enforced* when the machine actually exposes 8 cores:
scaling claims are meaningless on fewer cores than workers, but the
equality assertions hold everywhere.
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks._shared import SCALE, bench_metadata, problem, scaled, write_report
from repro.analysis.experiments import compare_methods
from repro.analysis.tables import format_table
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.parallel import default_workers

JSON_PATH = Path(__file__).parent.parent / "BENCH_parallel_scaling.json"

#: Acceptance floor: >= 3x at 8 workers, enforced only on >= 8 cores.
SPEEDUP_FLOOR = 3.0
FLOOR_WORKERS = 8

#: Golden-MC failures required at the full budget (which expects ~20; a
#: Poisson count of mean 20 falls under 10 with probability ~0.5%); scaled
#: budgets need the same share of it.
FAILURE_FLOOR = 10


def run():
    cpu_count = default_workers()
    prob = problem("iread")
    n_samples = scaled(1_050_000, 50_000)
    shard_size = max(n_samples // 32, 500)

    mc_records = []
    reference = None
    for n_workers in (1, 2, 4, 8):
        t0 = time.perf_counter()
        result = brute_force_monte_carlo(
            prob.metric, prob.spec, n_samples, dimension=prob.dimension,
            rng=2011, n_workers=n_workers, backend="process",
            shard_size=shard_size,
        )
        elapsed = time.perf_counter() - t0
        if reference is None:
            reference = result
        # Determinism contract: every worker count reproduces the
        # n_workers=1 run bit for bit.
        assert result.failure_probability == reference.failure_probability
        assert result.extras["n_failures"] == reference.extras["n_failures"]
        np.testing.assert_array_equal(
            result.trace.estimate, reference.trace.estimate
        )
        mc_records.append({
            "n_workers": n_workers,
            "elapsed_s": elapsed,
            "estimate": result.failure_probability,
            "n_failures": result.extras["n_failures"],
            "n_shards": result.extras["n_shards"],
            # One record per worker process that computed shards, with
            # its host stamp — scaling numbers are only comparable when
            # the workers actually landed on the machine they claim.
            "workers": [
                {
                    "hostname": h.get("hostname"),
                    "pid": h.get("pid"),
                    "cpu_count": h.get("cpu_count"),
                    "n_shards": h["n_shards"],
                }
                for h in result.extras["worker_hosts"]
            ],
        })
    for record in mc_records:
        record["speedup_vs_1"] = mc_records[0]["elapsed_s"] / record["elapsed_s"]
    failure_floor = max(1, int(FAILURE_FLOOR * min(SCALE, 1.0)))
    assert reference.extras["n_failures"] >= failure_floor, (
        f"golden MC observed {reference.extras['n_failures']} failures in "
        f"{n_samples} samples (floor {failure_floor})"
    )

    # Panel workload: four methods on the read-current problem, each panel
    # entry on its own spawn-indexed stream (serial and parallel identical).
    panel_prob = problem("iread")
    panel_kwargs = dict(
        seed=2012,
        n_second_stage=scaled(20_000, 2_000),
        n_gibbs=scaled(200, 30),
        doe_budget=scaled(600, 150),
    )
    t0 = time.perf_counter()
    panel_serial = compare_methods(panel_prob, **panel_kwargs)
    panel_serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    panel_parallel = compare_methods(panel_prob, n_workers=4, **panel_kwargs)
    panel_parallel_s = time.perf_counter() - t0
    for name in panel_serial:
        assert (
            panel_parallel[name].failure_probability
            == panel_serial[name].failure_probability
        )

    speedup_8 = mc_records[-1]["speedup_vs_1"]
    if cpu_count >= FLOOR_WORKERS:
        assert speedup_8 >= SPEEDUP_FLOOR, (
            f"{FLOOR_WORKERS}-worker sharded MC reached only "
            f"{speedup_8:.2f}x on {cpu_count} cores (floor {SPEEDUP_FLOOR}x)"
        )

    payload = {
        "cpu_count": cpu_count,
        "environment": bench_metadata(),
        "mc_problem": "iread (read current, M = 2)",
        "mc_n_samples": n_samples,
        "mc_failure_floor": failure_floor,
        "mc_shard_size": shard_size,
        "mc_records": mc_records,
        "mc_estimates_identical_across_workers": True,
        "panel_problem": "iread (read current, M = 2)",
        "panel_serial_s": panel_serial_s,
        "panel_parallel4_s": panel_parallel_s,
        "panel_speedup": panel_serial_s / panel_parallel_s,
        "panel_results_identical": True,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_floor_workers": FLOOR_WORKERS,
        "speedup_floor_enforced": cpu_count >= FLOOR_WORKERS,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            r["n_workers"], f"{r['elapsed_s']:.2f}",
            f"{r['speedup_vs_1']:.2f}x", f"{r['estimate']:.3e}",
            r["n_failures"],
        ]
        for r in mc_records
    ]
    report = (
        f"machine: {cpu_count} usable core(s)\n\n"
        f"sharded golden MC, iread, N = {n_samples}, "
        f"shard_size = {shard_size}, process backend:\n"
        + format_table(
            ["workers", "time [s]", "speedup", "estimate", "failures"], rows
        )
        + "\n\nestimates, failure counts and traces bit-identical across "
        "all worker counts: yes\n"
        f"panel (iread, 4 methods): serial {panel_serial_s:.2f}s, "
        f"4 workers {panel_parallel_s:.2f}s "
        f"({panel_serial_s / panel_parallel_s:.2f}x), results identical\n"
        f"speedup floor ({SPEEDUP_FLOOR}x at {FLOOR_WORKERS} workers) "
        f"{'ENFORCED' if cpu_count >= FLOOR_WORKERS else 'recorded only'} "
        f"on this machine\n"
        f"JSON record: {JSON_PATH.name}"
    )
    write_report("parallel_scaling", report)


def test_parallel_scaling(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)


if __name__ == "__main__":
    run()
