"""Read-current tolerance of the read-upset fixed point, on ~1M lanes.

``SixTransistorCell._read_fixed_point`` stops a straggler's bisection once
its bracket bounds the read current within ``_READ_CURRENT_TOL`` (1 pA).
This bench checks that contract on the populations the read-current flows
simulate: golden Monte-Carlo draws from N(0, I), importance-sampling tails
(normals shifted around the read-upset wedge, and a widened normal), and
draws from G-S proposals fitted at five seeds — 1,081,344 lanes at the
default scale.  Every lane's read state is solved in the metric's
4,096-row chunks by the cell and by ``SequentialReadCell``, the
pre-change read path with its 30 sequential bisection steps, kept in
tests/test_sram_cell.py.  Asserted: every read current within the
tolerance of the oracle's, no pass/fail change at the 35 uA spec, the
lanes the Newton pass converges bit-identical, and the cell's solve
bit-identical in 1,024-row chunks (batch composition).  The report
gives, per population, the stragglers, the bisection steps they took,
the largest current change and both solves' wall time.
"""

import time

import numpy as np

from benchmarks._shared import scaled, write_report
from repro import telemetry
from repro.analysis.tables import format_table
from repro.gibbs.two_stage import fit_first_stage
from repro.sram import cell as cell_module
from repro.sram.problems import read_current_problem
from tests.test_sram_cell import SequentialReadCell, _low_read_current, _newton_lanes

#: Centres of the shifted-normal tails, around the read-upset wedge.
SHIFTS = ((3.0, -3.0), (4.0, -2.0), (2.0, -4.0), (3.5, -3.5), (2.5, -3.0))

#: First-stage seeds of the fitted G-S proposals.
GS_SEEDS = tuple(range(5))


def populations(prob):
    """``{label: x}`` of whitened ``(n, 2)`` samples."""
    gen = np.random.default_rng(20261018)
    pops = {"golden N(0, I)": gen.standard_normal((scaled(524288, 4096), 2))}
    for shift in SHIFTS:
        pops["N((%g, %g), I)" % shift] = (
            np.array(shift) + gen.standard_normal((scaled(65536, 1024), 2))
        )
    pops["N(0, 6.25 I)"] = 2.5 * gen.standard_normal((scaled(65536, 1024), 2))
    for seed in GS_SEEDS:
        artifact = fit_first_stage(
            prob.metric, prob.spec, dimension=2, n_gibbs=150, n_chains=4,
            rng=seed, n_workers=1, backend="serial",
        )
        pops[f"G-S g_nor, seed {seed}"] = artifact.proposal.sample(
            scaled(32768, 512), np.random.default_rng(100 + seed)
        )
    return pops


def solve(cell, mismatch, x, chunk=4096):
    """Read state ``(v_q, v_qb)`` of every row of ``x``, chunk by chunk."""
    out = np.empty((2, len(x)))
    for s in range(0, len(x), chunk):
        out[:, s:s + chunk] = cell.solve_read_state(
            mismatch.deltas(x[s:s + chunk])
        )
    return out


def run():
    prob = read_current_problem()
    metric, cell, spec = prob.metric, prob.metric.cell, prob.spec.threshold
    oracle = SequentialReadCell(cell.technology, cell.geometries)
    tol = cell_module._READ_CURRENT_TOL
    rows, totals = [], np.zeros(6)
    for label, x in populations(prob).items():
        deltas = metric.mismatch.deltas(x)
        recorder = telemetry.Recorder(run_id="read-current-tolerance")
        t0 = time.perf_counter()
        with telemetry.activate(recorder):
            stopped = solve(cell, metric.mismatch, x)
        t_stop = time.perf_counter() - t0
        t0 = time.perf_counter()
        full = solve(oracle, metric.mismatch, x)
        t_full = time.perf_counter() - t0
        newton = np.concatenate([
            _newton_lanes(cell, metric.mismatch.deltas(x[s:s + 4096]), True)
            for s in range(0, len(x), 4096)
        ])
        i_stop = _low_read_current(cell, stopped, deltas, True)
        i_full = _low_read_current(cell, full, deltas, True)
        change = float(np.max(np.abs(i_stop - i_full)))
        flips = int(np.count_nonzero((i_stop < spec) != (i_full < spec)))
        assert change <= tol, f"{label}: read current moved {change:.3g} A"
        assert flips == 0, f"{label}: {flips} lanes changed pass/fail"
        np.testing.assert_array_equal(stopped[:, newton], full[:, newton])
        np.testing.assert_array_equal(
            solve(cell, metric.mismatch, x, chunk=1024), stopped
        )
        lanes = recorder.counters.get("read.fixed_point_lanes", 0)
        steps = recorder.counters.get("read.bisect_steps", 0)
        assert lanes == np.count_nonzero(~newton)
        failures = int(np.count_nonzero(i_full < spec))
        rows.append([
            label, f"{len(x):,}", f"{lanes:,}",
            f"{steps / lanes:.2f}" if lanes else "-", f"{failures:,}",
            f"{change:.1e}", flips, f"{t_stop:.1f}", f"{t_full:.1f}",
        ])
        totals += (len(x), lanes, steps, failures, t_stop, t_full)
    n, lanes, steps, failures, t_stop, t_full = totals
    rows.append([
        "all", f"{int(n):,}", f"{int(lanes):,}", f"{steps / lanes:.2f}",
        f"{int(failures):,}", f"{max(float(r[5]) for r in rows):.1e}",
        sum(r[6] for r in rows), f"{t_stop:.1f}", f"{t_full:.1f}",
    ])
    report = format_table(
        ["population", "lanes", "stragglers", "steps/straggler", "failures",
         "max |dI| (A)", "flips", "cell s", "oracle s"],
        rows,
    ) + (
        f"\n\nTolerance {tol:g} A against the {spec:g} A spec.  Every read "
        "current within it, no pass/fail change, Newton-converged lanes "
        "bit-identical, 1,024-row chunks bit-identical to 4,096-row ones.  "
        "The oracle takes 30 steps per straggler by construction."
    )
    write_report("read_current_tolerance", report)


def test_read_current_tolerance(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)
