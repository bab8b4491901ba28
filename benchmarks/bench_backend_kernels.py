"""Throughput of the hot SRAM simulation kernels against their oracles.

The margin and read-current metrics bypass the general netlist DC solver
(see the performance note in ``repro.sram.cell``): the read noise margin
solves its two half-cell VTCs, the read current its read state.  These
rows time what the metrics actually run — ``fused`` (both VTC sides
in one Newton loop, stacked device evaluation) against ``oracle`` (the
per-side, per-device kernel kept in tests/test_sram_cell.py) — at the row
counts of single Gibbs simulations (1, 2, 4 rows: ms/call) and of the
metric chunk (4,096 rows: µs/row).  The ``rnm_margin`` rows time the
read margin's extraction from the solved butterfly at the same row
counts: ``lobe_margins``, which evaluates only the stored-0 lobe and
counts curve points below the line levels with one sorted search, against
the two-lobe comparison count it replaced (kept in
tests/test_sram_butterfly.py), asserted bit-identical on the stored-0
margin.  The read-state tiny calls use
read-upset samples, whose unconverged Newton lanes take the fixed-point
straggler path; its 4,096-row chunk uses Monte-Carlo samples.  The
``read_upset_fixed_point`` rows time that straggler path alone — the
least-fixed-point construction with its residual-sign scan (one far solve
per distinct far-side mismatch row, one near residual per grid point) and
its speculative bisection tree, stopped once a lane's bracket bounds its
read current within ``_READ_CURRENT_TOL``, against the oracle's two Newton
solves per scan point and 30 sequential steps — at 1, 8, 64 and ~870
straggler lanes (one- and few-row Gibbs simulations, and
an importance-sampling shard).  RNM outputs are asserted bit-identical to
the oracle's.  The read-state and fixed-point rows are asserted to the
read-current contract instead: every lane's read current within
``_READ_CURRENT_TOL`` (1 pA) of the oracle's, the same pass/fail at the
35 uA spec, and the lanes the Newton pass converges bit-identical — for
the read state with its Newton start pinned to the stored state, the
oracle's start.  The timed read state starts each lane at its first-order
predicted state, and is asserted to that start's contract against the
pinned one: the same lanes reach the fixed point, bit-identical there, no
pass/fail change, and every Newton-accepted read current within the two
solutions' first-order errors.  The
``ekv_interp`` rows time the EKV interpolation ``F``, ``F'`` itself — the
one-exponential form every kernel above calls against the
``np.logaddexp`` form it replaced (kept in tests/test_devices_mosfet.py)
— at 486 lanes (one-row Gibbs VTC call: 81 grid points, 2 sides, 3
devices) and 24,576 lanes (a 4,096-row read-state chunk, 6 devices);
there the two agree within 4 ulp, not bitwise.

Timing is fully interleaved min-of-k: every round times each variant once
in rotation, and each variant reports its best round.  On a shared
container that is the only scheme that gave stable ratios; means drift by
2x between runs.

Headline numbers land in ``BENCH_backend_kernels.json`` at the repository
root, with the numpy/BLAS versions and usable core count from
:func:`benchmarks._shared.bench_metadata`.  Asserted floors: fused >= 1.5x
the oracle on every SRAM kernel call of at most two rows, and the
interpolation >= 2x its oracle at 24,576 lanes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks._shared import SCALE, bench_metadata, interleaved_min, write_report
from repro.devices.mosfet import _interp_f_and_deriv
from repro.sram.butterfly import lobe_margins
from repro.sram.metrics import ReadCurrentMetric, ReadNoiseMarginMetric
from repro.sram.problems import fragile_cell
from tests.test_devices_mosfet import _logaddexp_interp
from tests.test_sram_butterfly import _lobe_margins_reference
from tests.test_sram_cell import (
    SequentialReadCell,
    _assert_read_current_contract,
    _assert_start_contract,
    _half_cell_vtc_reference,
    _newton_lanes,
    _pin_stored_start,
)

JSON_PATH = Path(__file__).parent.parent / "BENCH_backend_kernels.json"

#: Rows per call of the SRAM kernel rows: single Gibbs simulations, then
#: the metric layer's default chunk.
TINY_ROWS = (1, 2, 4)
CHUNK_ROWS = 4096

#: Straggler lanes of the read-upset fixed-point rows.
STRAGGLER_LANES = (1, 8, 64, 870)

#: Floor on fused / oracle for SRAM kernel calls of at most two rows.
TINY_FLOOR = 1.5

#: Lanes of the interpolation rows: a one-row Gibbs VTC call and a
#: read-state chunk.
INTERP_LANES = (486, 6 * 4096)

#: Floor on the interpolation's speedup over its oracle at 24,576 lanes,
#: and the agreement it must keep with it.
INTERP_FLOOR = 2.0
INTERP_ULPS = 4.0


def _sram_kernels(rows, seed=23):
    """``{kernel: {variant: call}}`` for one row count, outputs checked.

    The RNM VTC pair solves the read butterfly's two sides, and the RNM
    margin extracts the read margin from that butterfly; the read state
    is the read-current metric's DC solve.  Tiny read-state calls sit in
    the read-upset wedge (the straggler path), the chunk is a Monte-Carlo
    batch.  The VTC pair and the margin must match their oracles bit for
    bit; the read state must keep both of its contracts: the read-current
    stop against the oracle with the Newton start pinned to the stored
    state, and the predicted start against that pinned start.
    """
    rng = np.random.default_rng(seed + rows)
    rnm = ReadNoiseMarginMetric()
    cell, grid, vdd = rnm.cell, rnm.grid, rnm.cell.vdd
    oracle_cell = SequentialReadCell(cell.technology, cell.geometries)
    vtc_deltas = rnm.mismatch.deltas(3.0 * rng.standard_normal((rows, 6)))
    iread = ReadCurrentMetric(fragile_cell())
    fragile = iread.cell
    oracle_fragile = SequentialReadCell(fragile.technology, fragile.geometries)
    if rows in TINY_ROWS:
        x = np.array([5.0, -4.0]) + 0.3 * rng.standard_normal((rows, 2))
    else:
        x = rng.standard_normal((rows, 2))
    read_deltas = iread.mismatch.deltas(x)
    butterfly = cell.half_cell_vtc(("left", "right"), grid, (vdd, vdd), vtc_deltas)
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
        "rnm_margin": {
            "fused": lambda: lobe_margins(grid, *butterfly),
            "oracle": lambda: _lobe_margins_reference(grid, *butterfly),
        },
        "iread_read_state": {
            "fused": lambda: fragile.solve_read_state(read_deltas),
            "oracle": lambda: oracle_fragile.solve_read_state(read_deltas),
        },
    }
    rnm_pair, read_state = kernels["rnm_vtc_pair"], kernels["iread_read_state"]
    for got, want in zip(rnm_pair["fused"](), rnm_pair["oracle"]()):
        np.testing.assert_array_equal(got, want)
    margin = kernels["rnm_margin"]
    assert margin["fused"]().tobytes() == margin["oracle"]()[0].tobytes()
    with pytest.MonkeyPatch.context() as mp:
        _pin_stored_start(mp)
        _assert_read_current_contract(
            fragile, read_state["fused"](), read_state["oracle"](), read_deltas,
            True, _newton_lanes(fragile, read_deltas, True),
        )
    _assert_start_contract(fragile, read_deltas, True)
    return kernels


def _fixed_point_kernel(lanes, seed=29):
    """``{variant: call}`` of the read-upset fixed point on ``lanes``
    stragglers, outputs checked against the read-current contract."""
    rng = np.random.default_rng(seed + lanes)
    iread = ReadCurrentMetric(fragile_cell())
    cell = iread.cell
    oracle_cell = SequentialReadCell(cell.technology, cell.geometries)
    deltas = iread.mismatch.deltas(
        np.array([5.0, -4.0]) + 0.3 * rng.standard_normal((lanes, 2))
    )
    variants = {
        "fused": lambda: cell._read_fixed_point(deltas, True, lanes),
        "oracle": lambda: oracle_cell._read_fixed_point(deltas, True, lanes),
    }
    _assert_read_current_contract(
        cell, variants["fused"](), variants["oracle"](), deltas, True
    )
    return variants


def _interp_kernel(lanes, seed=31):
    """``{variant: call}`` of ``F``, ``F'`` on ``lanes`` arguments spread
    over the range the SRAM solves visit, outputs checked within
    ``INTERP_ULPS`` of the oracle's."""
    u = np.random.default_rng(seed + lanes).uniform(-60.0, 60.0, lanes)
    variants = {
        "fused": lambda: _interp_f_and_deriv(u),
        "oracle": lambda: _logaddexp_interp(u),
    }
    for got, want in zip(variants["fused"](), variants["oracle"]()):
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert ulps.max() <= INTERP_ULPS, f"{ulps.max():.1f} ulp at {lanes} lanes"
    return variants


def bench_sram_kernels():
    tiny_rounds = max(5, int(round(20 * SCALE)))
    chunk_rounds = max(2, int(round(3 * SCALE)))
    interp_rounds = max(50, int(round(200 * SCALE)))
    timed = [
        (kernel, rows, rows in TINY_ROWS, variants)
        for rows in TINY_ROWS + (CHUNK_ROWS,)
        for kernel, variants in _sram_kernels(rows).items()
    ] + [
        ("read_upset_fixed_point", lanes, True, _fixed_point_kernel(lanes))
        for lanes in STRAGGLER_LANES
    ] + [
        ("ekv_interp", lanes, True, _interp_kernel(lanes))
        for lanes in INTERP_LANES
    ]
    records = []
    for kernel, rows, per_call, variants in timed:
        if kernel == "ekv_interp":
            rounds = interp_rounds
        else:
            rounds = tiny_rounds if rows < 100 else chunk_rounds
        best = interleaved_min(variants, rounds)
        records.append(
            {
                "kernel": kernel,
                "rows": rows,
                "rounds": rounds,
                "per_call": per_call,
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
    payload = {
        "workload": "RNM VTC pair (81-point grid, both sides), RNM margin "
                    "extraction (stored-0 lobe, sorted-level count, vs the "
                    "two-lobe comparison count), iread read "
                    "state (Newton from each lane's first-order predicted "
                    "state) and its read-upset fixed point (residual-sign "
                    "scan with one far solve per far-side mismatch row, "
                    "bisection stopped at a 1 pA read-current bracket); "
                    "fused kernel vs the pre-change oracle (stored-state "
                    "Newton start, two Newton solves per scan point, 30 "
                    "sequential bisection steps).  ekv_interp: the EKV "
                    "interpolation F, F' vs its logaddexp form",
        "environment": bench_metadata(),
        "tiny_rows": list(TINY_ROWS),
        "chunk_rows": CHUNK_ROWS,
        "straggler_lanes": list(STRAGGLER_LANES),
        "interp_lanes": list(INTERP_LANES),
        "tiny_floor": TINY_FLOOR,
        "interp_floor": INTERP_FLOOR,
        "records": sram,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["SRAM metric kernels, fused vs pre-change oracle"]
    lines.append(f"{'kernel':>22} {'rows':>5} {'fused':>14} {'oracle':>14} {'speedup':>8}")
    for r in sram:
        unit, key = ("ms/call", "ms_per_call") if r["per_call"] \
            else ("us/row", "us_per_row")
        lines.append(
            f"{r['kernel']:>22} {r['rows']:>5} "
            f"{r['fused_' + key]:>7.3g} {unit:<6} {r['oracle_' + key]:>7.3g} {unit:<6} "
            f"{r['speedup']:>7.2f}x"
        )
    write_report("backend_kernels", "\n".join(lines))

    # Floors, not targets (see BENCH_backend_kernels.json for measurements).
    for r in sram:
        if r["rows"] <= 2:
            assert r["speedup"] >= TINY_FLOOR, (
                f"{r['kernel']} at {r['rows']} row(s): fused only "
                f"{r['speedup']:.2f}x the oracle (floor {TINY_FLOOR}x)"
            )
        if r["kernel"] == "ekv_interp" and r["rows"] == max(INTERP_LANES):
            assert r["speedup"] >= INTERP_FLOOR, (
                f"ekv_interp at {r['rows']} lanes: only {r['speedup']:.2f}x "
                f"the logaddexp form (floor {INTERP_FLOOR}x)"
            )


if __name__ == "__main__":
    test_backend_kernel_throughput()
