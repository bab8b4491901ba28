"""Throughput of the hot simulation kernels and their fast paths.

Two families of rows.

**DC netlist solve.**  The standard 6-T cell in its read configuration,
built as a netlist and solved by the general DC solver (examples,
cross-validation and netlist-defined circuits use it) over Monte-Carlo
``delta_vth`` batches at the sizes the samplers use: lockstep Gibbs chain
batches (64–1024) and the metric layer's default evaluation chunk (4096).
Variants:

* ``generic`` — the per-element stamping walk (``compiled=False``), the
  historical baseline and the compiled path's oracle.
* ``compiled`` — the precompiled scatter-program stamper
  (``compiled=None``/``True``, the default), bit-identical to ``generic``
  (the battery in tests/test_backend_kernels.py enforces it).

**SRAM metric kernels.**  The margin and read-current metrics bypass that
solver (see the performance note in ``repro.sram.cell``): the read noise
margin solves its two half-cell VTCs, the read current its read state.
These rows time what the metrics actually run — ``fused`` (both VTC sides
in one Newton loop, stacked device evaluation) against ``oracle`` (the
per-side, per-device kernel kept in tests/test_sram_cell.py) — at the row
counts of single Gibbs simulations (1, 2, 4 rows: ms/call) and of the
metric chunk (4,096 rows: µs/row).  The read-state tiny calls use
read-upset samples, whose unconverged Newton lanes take the fixed-point
straggler path; its 4,096-row chunk uses Monte-Carlo samples.  Outputs are
asserted bit-identical to the oracle's.

Timing is fully interleaved min-of-k: every round times each variant once
in rotation, and each variant reports its best round.  On a shared
container that is the only scheme that gave stable ratios; means drift by
2x between runs.

Headline numbers land in ``BENCH_backend_kernels.json`` at the repository
root, with the numpy/BLAS versions and usable core count from
:func:`benchmarks._shared.bench_metadata`.  Asserted floors: compiled >=
1.5x generic at a Gibbs-scale batch, and fused >= 1.5x the oracle on every
SRAM kernel call of at most two rows.
"""

import json
from pathlib import Path

import numpy as np

from benchmarks._shared import SCALE, bench_metadata, interleaved_min, write_report
from repro.circuit import solve_dc
from repro.sram.cell import DEVICE_NAMES, SixTransistorCell
from repro.sram.metrics import ReadCurrentMetric, ReadNoiseMarginMetric
from repro.sram.problems import fragile_cell
from tests.test_sram_cell import ReferenceCell, _half_cell_vtc_reference

JSON_PATH = Path(__file__).parent.parent / "BENCH_backend_kernels.json"

#: Batch sizes: Gibbs lockstep chain batches, then the metric chunk default.
BATCH_SIZES = (64, 256, 1024, 4096)

#: Gibbs-scale sizes over which the headline speedup is taken.
GIBBS_SIZES = (64, 256)

#: Rows per call of the SRAM kernel rows: single Gibbs simulations, then
#: the metric layer's default chunk.
TINY_ROWS = (1, 2, 4)
CHUNK_ROWS = 4096

#: Floor on fused / oracle for SRAM kernel calls of at most two rows.
TINY_FLOOR = 1.5


def _problem(n_batch, seed=17):
    cell = SixTransistorCell()
    rng = np.random.default_rng(seed)
    params = {
        name: {"delta_vth": rng.normal(0.0, 0.08, n_batch)}
        for name in DEVICE_NAMES
    }
    clamps = {"vdd": cell.vdd, "wl": cell.vdd, "bl": cell.vdd, "blb": cell.vdd}
    return cell.build_circuit(), clamps, params


def bench_dc_solver():
    rounds = max(3, int(round(5 * SCALE)))
    variants = {"generic": False, "compiled": True}  # the ``compiled=`` value
    records = []
    for n_batch in BATCH_SIZES:
        circuit, clamps, params = _problem(n_batch)
        # Warm-up: compiles/caches the stamping plan so the timed rounds
        # measure steady-state solves only, and pins the convergence
        # contract.
        for compiled in variants.values():
            sol = solve_dc(circuit, clamps, element_params=params, compiled=compiled)
            assert sol.iterations > 0
        best = interleaved_min(
            {
                name: lambda compiled=compiled: solve_dc(
                    circuit, clamps, element_params=params, compiled=compiled
                )
                for name, compiled in variants.items()
            },
            rounds,
        )
        base = best["generic"]
        for name in variants:
            records.append(
                {
                    "n_batch": n_batch,
                    "variant": name,
                    "best_solve_s": best[name],
                    "samples_per_sec": n_batch / best[name],
                    "speedup_vs_generic": base / best[name],
                }
            )
    return records


def _sram_kernels(rows, seed=23):
    """``{kernel: {variant: call}}`` for one row count, outputs checked.

    The RNM VTC pair solves the read butterfly's two sides; the read
    state is the read-current metric's DC solve.  Tiny read-state calls
    sit in the read-upset wedge (the straggler path), the chunk is a
    Monte-Carlo batch.
    """
    rng = np.random.default_rng(seed + rows)
    rnm = ReadNoiseMarginMetric()
    cell, grid, vdd = rnm.cell, rnm.grid, rnm.cell.vdd
    oracle_cell = ReferenceCell(cell.technology, cell.geometries)
    vtc_deltas = rnm.mismatch.deltas(3.0 * rng.standard_normal((rows, 6)))
    iread = ReadCurrentMetric(fragile_cell())
    fragile = iread.cell
    oracle_fragile = ReferenceCell(fragile.technology, fragile.geometries)
    if rows in TINY_ROWS:
        x = np.array([5.0, -4.0]) + 0.3 * rng.standard_normal((rows, 2))
    else:
        x = rng.standard_normal((rows, 2))
    read_deltas = iread.mismatch.deltas(x)
    kernels = {
        "rnm_vtc_pair": {
            "fused": lambda: cell.half_cell_vtc(
                ("left", "right"), grid, (vdd, vdd), vtc_deltas
            ),
            "oracle": lambda: tuple(
                _half_cell_vtc_reference(oracle_cell, side, grid, vdd, vtc_deltas)
                for side in ("left", "right")
            ),
        },
        "iread_read_state": {
            "fused": lambda: fragile.solve_read_state(read_deltas),
            "oracle": lambda: oracle_fragile.solve_read_state(read_deltas),
        },
    }
    for variants in kernels.values():
        for got, want in zip(variants["fused"](), variants["oracle"]()):
            np.testing.assert_array_equal(got, want)
    return kernels


def bench_sram_kernels():
    records = []
    for rows in TINY_ROWS + (CHUNK_ROWS,):
        tiny = rows in TINY_ROWS
        rounds = max(5, int(round(20 * SCALE))) if tiny else max(2, int(round(3 * SCALE)))
        for kernel, variants in _sram_kernels(rows).items():
            best = interleaved_min(variants, rounds)
            records.append(
                {
                    "kernel": kernel,
                    "rows": rows,
                    "rounds": rounds,
                    "fused_ms_per_call": 1e3 * best["fused"],
                    "oracle_ms_per_call": 1e3 * best["oracle"],
                    "fused_us_per_row": 1e6 * best["fused"] / rows,
                    "oracle_us_per_row": 1e6 * best["oracle"] / rows,
                    "speedup": best["oracle"] / best["fused"],
                }
            )
    return records


def test_backend_kernel_throughput():
    sram = bench_sram_kernels()
    records = bench_dc_solver()
    headline = max(
        r["speedup_vs_generic"]
        for r in records
        if r["variant"] == "compiled" and r["n_batch"] in GIBBS_SIZES
    )
    payload = {
        "workload": "6T read-configuration DC solve, per-device delta_vth batch",
        "batch_sizes": list(BATCH_SIZES),
        "gibbs_sizes": list(GIBBS_SIZES),
        "rounds": max(3, int(round(5 * SCALE))),
        "environment": bench_metadata(),
        "records": records,
        "headline_compiled_speedup": headline,
        "sram_kernels": {
            "workload": "RNM VTC pair (81-point grid, both sides) and iread "
                        "read state; fused kernel vs the per-side oracle",
            "tiny_rows": list(TINY_ROWS),
            "chunk_rows": CHUNK_ROWS,
            "tiny_floor": TINY_FLOOR,
            "records": sram,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["simulator kernel throughput (6T read DC solve)", ""]
    lines.append(f"{'n_batch':>8} {'variant':>14} {'samples/s':>12} {'vs generic':>11}")
    for r in records:
        lines.append(
            f"{r['n_batch']:>8} {r['variant']:>14} "
            f"{r['samples_per_sec']:>12.0f} {r['speedup_vs_generic']:>10.2f}x"
        )
    lines.append("")
    lines.append(f"headline compiled speedup (Gibbs-scale batches): {headline:.2f}x")
    lines.append("")
    lines.append("SRAM metric kernels, fused vs per-side oracle")
    lines.append(f"{'kernel':>17} {'rows':>5} {'fused':>12} {'oracle':>12} {'speedup':>8}")
    for r in sram:
        unit, key = ("ms/call", "ms_per_call") if r["rows"] in TINY_ROWS \
            else ("us/row", "us_per_row")
        lines.append(
            f"{r['kernel']:>17} {r['rows']:>5} "
            f"{r['fused_' + key]:>6.2f} {unit:<5} {r['oracle_' + key]:>6.2f} {unit:<5} "
            f"{r['speedup']:>7.2f}x"
        )
    write_report("backend_kernels", "\n".join(lines))

    # Floor, not a target (see BENCH_backend_kernels.json for measurements).
    assert headline >= 1.5, f"compiled speedup {headline:.2f}x under the 1.5x floor"
    for r in sram:
        if r["rows"] <= 2:
            assert r["speedup"] >= TINY_FLOOR, (
                f"{r['kernel']} at {r['rows']} row(s): fused only "
                f"{r['speedup']:.2f}x the oracle (floor {TINY_FLOOR}x)"
            )


if __name__ == "__main__":
    test_backend_kernel_throughput()
