"""Simulator kernel tests: device derivatives and the bit-identity battery
gating the compiled stamping fast path.

The contract from DESIGN.md ("Kernels") enforced here: the compiled
stamping path is **bit-identical** to the generic element-walk
implementation, and a stacked device evaluation is bit-identical per lane
to per-device calls.
"""

import numpy as np

from repro.circuit import Circuit, solve_dc
from repro.circuit.netlist import GROUND
from repro.circuit.stamping import compile_plan
from repro.circuit.transient import simulate_transient, step_waveform
from repro.devices.mosfet import (
    NMOS,
    PMOS,
    Mosfet,
    MosfetParams,
    ekv_current_and_derivs,
)
from repro.sram.cell import DEVICE_NAMES, SixTransistorCell

NPARAMS = MosfetParams(polarity=NMOS, vth=0.35, beta=9e-4, n=1.35, lam=0.15)
PPARAMS = MosfetParams(polarity=PMOS, vth=0.35, beta=1.5e-4, n=1.45, lam=0.15)


def _fd_check(params, vb, rtol=2e-5):
    """Central-difference check of the three analytic partials."""
    rng = np.random.default_rng(7)
    n = 64
    vg = rng.uniform(-0.2, 1.4, n)
    vd = rng.uniform(-0.2, 1.4, n)
    vs = rng.uniform(-0.2, 1.4, n)
    dvt = rng.normal(0.0, 0.05, n)
    dev = Mosfet(params)
    ids, d_dvg, d_dvd, d_dvs = dev.current_and_derivs(vg, vd, vs, vb, dvt)
    h = 1e-7
    for target, grad in (("vg", d_dvg), ("vd", d_dvd), ("vs", d_dvs)):
        args_hi = {"vg": vg, "vd": vd, "vs": vs}
        args_lo = {"vg": vg, "vd": vd, "vs": vs}
        args_hi[target] = args_hi[target] + h
        args_lo[target] = args_lo[target] - h
        hi = dev.current(args_hi["vg"], args_hi["vd"], args_hi["vs"], vb, dvt)
        lo = dev.current(args_lo["vg"], args_lo["vd"], args_lo["vs"], vb, dvt)
        fd = (hi - lo) / (2.0 * h)
        scale = np.maximum(np.abs(grad), 1e-9)
        np.testing.assert_allclose(fd, grad, rtol=rtol, atol=1e-9 * scale.max())


class TestDeviceDerivatives:
    def test_nmos_finite_difference(self):
        _fd_check(NPARAMS, vb=0.0)

    def test_pmos_bulk_referenced_finite_difference(self):
        # The PMOS pinch-off is referenced to the n-well at VDD: the check
        # must hold in that reflected frame, not just at vb = 0.
        _fd_check(PPARAMS, vb=1.2)

    def test_pmos_off_at_zero_vgs(self):
        dev = Mosfet(PPARAMS)
        ids = dev.current(np.array([1.2]), np.array([0.6]), np.array([1.2]), 1.2)
        assert abs(ids[0]) < 1e-9

    def test_stacked_device_axis_matches_per_device(self):
        # The compiled stamper evaluates all MOSFETs of a circuit at once
        # with a leading device axis and per-device parameter columns; each
        # lane must be bit-identical to the per-device call.
        rng = np.random.default_rng(11)
        n = 257
        v = rng.uniform(-0.2, 1.4, size=(4, 3, n))
        params = [NPARAMS, PPARAMS, NPARAMS]
        pol = np.array([[p.polarity] for p in params], dtype=float)
        vth = np.array([[p.vth] for p in params])
        beta = np.array([[p.beta] for p in params])
        nn = np.array([[p.n] for p in params])
        lam = np.array([[p.lam] for p in params])
        stacked = ekv_current_and_derivs(
            v[0], v[1], v[2], v[3], pol, vth, beta, nn, lam
        )
        for i, p in enumerate(params):
            single = ekv_current_and_derivs(
                v[0, i], v[1, i], v[2, i], v[3, i],
                float(p.polarity), p.vth, p.beta, p.n, p.lam,
            )
            for got, want in zip(stacked, single):
                np.testing.assert_array_equal(got[i], want)


def _inverter():
    c = Circuit("inv")
    c.add_mosfet("mn", NPARAMS, drain="out", gate="in", source="0")
    c.add_mosfet("mp", PPARAMS, drain="out", gate="in", source="vdd", bulk="vdd")
    return c


def _read_clamps(vdd):
    return {"vdd": vdd, "wl": vdd, "bl": vdd, "blb": vdd}


def _cell_problem(n=193, seed=3):
    cell = SixTransistorCell()
    rng = np.random.default_rng(seed)
    params = {
        name: {"delta_vth": rng.normal(0.0, 0.08, n)} for name in DEVICE_NAMES
    }
    return cell, params


class TestBitIdentityBattery:
    """Compiled stamping must be bitwise equal to the generic element walk."""

    def _assert_solutions_identical(self, a, b):
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.converged, b.converged)
        for node in a.voltages:
            np.testing.assert_array_equal(a.voltage(node), b.voltage(node))

    def test_read_configuration(self):
        cell, params = _cell_problem()
        circuit = cell.build_circuit()
        clamps = _read_clamps(cell.vdd)
        compiled = solve_dc(circuit, clamps, element_params=params, compiled=True)
        generic = solve_dc(circuit, clamps, element_params=params, compiled=False)
        assert bool(np.all(compiled.converged))
        self._assert_solutions_identical(compiled, generic)

    def test_write_configuration_exercises_restart(self):
        # Write clamps from the wrong initial guess force the solver through
        # its straggler-restart path; compiled and generic must walk it in
        # lockstep.
        cell, params = _cell_problem(n=257, seed=5)
        circuit = cell.build_circuit()
        vdd = cell.vdd
        clamps = {"vdd": vdd, "wl": vdd, "bl": 0.0, "blb": vdd}
        compiled = solve_dc(circuit, clamps, element_params=params, compiled=True)
        generic = solve_dc(circuit, clamps, element_params=params, compiled=False)
        self._assert_solutions_identical(compiled, generic)

    def test_multi_chunk_batch(self):
        # Batches beyond the stamper's lane chunk must tile bit-identically.
        cell, params = _cell_problem(n=2600, seed=13)
        circuit = cell.build_circuit()
        clamps = _read_clamps(cell.vdd)
        compiled = solve_dc(circuit, clamps, element_params=params, compiled=True)
        generic = solve_dc(circuit, clamps, element_params=params, compiled=False)
        self._assert_solutions_identical(compiled, generic)

    def test_mixed_elements_with_resistor_and_source(self):
        c = _inverter()
        c.add_resistor("rl", 50e3, "out", "0")
        c.add_current_source("ib", 2e-6, "out", "0")
        vin = np.linspace(0.0, 1.2, 97)
        compiled = solve_dc(c, {"vdd": 1.2, "in": vin}, compiled=True)
        generic = solve_dc(c, {"vdd": 1.2, "in": vin}, compiled=False)
        self._assert_solutions_identical(compiled, generic)

    def test_transient_compiled_matches_generic(self):
        cell, params = _cell_problem(n=48, seed=21)
        circuit = cell.build_circuit()
        vdd = cell.vdd
        sources = {
            "vdd": vdd,
            "wl": step_waveform(20e-12, 0.0, vdd),
            "bl": 0.0,
            "blb": vdd,
        }
        caps = {"q": 5e-15, "qb": 5e-15}
        initial = {"q": vdd, "qb": 0.0}
        kwargs = dict(
            element_params=params, initial=initial, t_stop=120e-12, dt=1e-12
        )
        res_c = simulate_transient(
            circuit, sources, caps, compiled=True, **kwargs
        )
        res_g = simulate_transient(
            circuit, sources, caps, compiled=False, **kwargs
        )
        np.testing.assert_array_equal(res_c.converged, res_g.converged)
        for node in res_c.voltages:
            np.testing.assert_array_equal(
                res_c.waveform(node), res_g.waveform(node)
            )

    def test_plan_cache_hit(self):
        cell, params = _cell_problem(n=17)
        circuit = cell.build_circuit()
        clamped = (GROUND, "vdd", "wl", "bl", "blb")
        free_index = {
            n: i for i, n in enumerate(n for n in circuit.nodes if n not in clamped)
        }
        plan_a = compile_plan(circuit, free_index, list(clamped), params)
        plan_b = compile_plan(circuit, free_index, list(clamped), params)
        assert plan_a is plan_b
