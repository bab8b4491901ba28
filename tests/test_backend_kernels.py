"""Simulator kernel tests: device derivatives and the bit-identity battery
of the netlist solvers.

The contracts from DESIGN.md ("Kernels") enforced here: the DC and
transient solvers are **bit-identical** to a frozen port of the element
walk they were refactored from (kept in this file as the reference), and
a stacked device evaluation is bit-identical per lane to per-device calls.
"""

import numpy as np

from repro.circuit import Circuit, solve_dc
from repro.circuit.netlist import GROUND
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
        # The SRAM cell kernels evaluate several MOSFETs at once with a
        # leading device axis and per-device parameter columns; each lane
        # must be bit-identical to the per-device call.
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


def _reference_walk(circuit, free_index, v_free, node_v, params):
    """Frozen port of the pre-refactor per-element KCL walk (reference only)."""
    n_rows, n_free = v_free.shape
    f = np.zeros((n_rows, n_free))
    jac = np.zeros((n_rows, n_free, n_free))
    node_v = dict(node_v)
    for node, idx in free_index.items():
        node_v[node] = v_free[:, idx]
    for element in circuit.elements:
        rows = [free_index.get(n, -1) for n in element.nodes]
        currents, partials = element.kcl_contributions(
            tuple(node_v[n] for n in element.nodes),
            **params.get(element.name, {}),
        )
        for i, row in enumerate(rows):
            if row < 0:
                continue
            f[:, row] += currents[i]
            for j, col in enumerate(rows):
                if col >= 0:
                    jac[:, row, col] += partials[i][j]
    return f, jac


def _flat(value, n):
    """``value`` broadcast to the ``(n,)`` batch axis."""
    return np.broadcast_to(np.asarray(value, dtype=np.float64), (n,))


def _batch(clamps, params):
    """1-D batch of the battery inputs: broadcast clamps and parameters."""
    n = max([np.size(v) for v in clamps.values()]
            + [np.size(v) for kw in params.values() for v in kw.values()])
    return (n, {k: _flat(v, n) for k, v in clamps.items()},
            {name: {k: _flat(v, n) for k, v in kw.items()}
             for name, kw in params.items()})


def _reference_solve_dc(circuit, clamps, params=None):
    """Frozen port of the pre-refactor DC solve at default settings.

    Damped Newton over a shrinking active set, then one heavily damped
    restart of the stragglers from a rail-adjacent guess.
    """
    n, clamp_v, params_v = _batch({GROUND: 0.0, **clamps}, params or {})
    free_index = {
        node: i for i, node in
        enumerate(n for n in circuit.nodes if n not in clamp_v)
    }
    diag = np.arange(len(free_index))
    hi = max(float(np.max(v)) for v in clamp_v.values())
    lo = min(float(np.min(v)) for v in clamp_v.values())

    def residual(v_act, idx):
        take = lambda v: np.take(v, idx, axis=0)
        f, jac = _reference_walk(
            circuit, free_index, v_act,
            {k: take(v) for k, v in clamp_v.items()},
            {name: {k: take(v) for k, v in kw.items()}
             for name, kw in params_v.items()},
        )
        jac[:, diag, diag] += 1e-12
        return f, jac

    def newton(v_free, active, step_cap):
        converged = ~active
        idx = np.nonzero(active)[0]
        v_act = v_free[idx]
        n_iters = 0
        for _ in range(120):
            if idx.size == 0:
                break
            f, jac = residual(v_act, idx)
            done = np.max(np.abs(f), axis=1) < 1e-11
            if done.any():
                converged[idx[done]] = True
                v_free[idx[done]] = v_act[done]
                idx, v_act, f, jac = (a[~done] for a in (idx, v_act, f, jac))
                if idx.size == 0:
                    break
            dv = np.linalg.solve(jac, -f[..., None])[..., 0]
            dv = np.clip(dv, -step_cap, step_cap)
            v_act = np.clip(v_act + dv, lo - 0.5, hi + 0.5)
            n_iters += 1
        else:
            if idx.size:
                f, _ = residual(v_act, idx)
                converged[idx[np.max(np.abs(f), axis=1) < 1e-11]] = True
        if idx.size:
            v_free[idx] = v_act
        return converged, n_iters

    v_free = np.full((n, len(free_index)), 0.5 * (hi + lo))
    converged, iterations = newton(v_free, np.ones(n, dtype=bool), 0.25)
    if not converged.all():
        retry = ~converged
        v_free[retry] = 0.9 * hi
        converged, n_iters = newton(v_free, retry, 0.05)
        iterations += n_iters
    voltages = dict(clamp_v)
    voltages.update({node: v_free[:, i] for node, i in free_index.items()})
    return voltages, converged, iterations


def _reference_transient(circuit, sources, caps, params, initial, t_stop, dt):
    """Frozen port of the pre-refactor backward-Euler transient."""
    at = lambda w, t: w(t) if callable(w) else w
    n, _, params_v = _batch(
        {k: at(w, 0.0) for k, w in sources.items()}, params
    )
    free = [x for x in circuit.nodes if x not in sources and x != GROUND]
    free_index = {node: i for i, node in enumerate(free)}
    diag = np.arange(len(free))
    g_cap = np.array([float(caps.get(x, 1e-15)) for x in free]) / dt
    n_steps = int(np.ceil(t_stop / dt))
    time = np.linspace(0.0, n_steps * dt, n_steps + 1)
    v = np.zeros((n, len(free)))
    for node, value in initial.items():
        v[:, free_index[node]] = value
    waves = {x: [v[:, i]] for x, i in free_index.items()}
    converged = np.ones(n, dtype=bool)
    for t in time[1:]:
        clamp_now = {GROUND: np.zeros(n)}
        clamp_now.update({k: _flat(at(w, t), n) for k, w in sources.items()})
        v_prev = v
        for _ in range(30):
            f, jac = _reference_walk(circuit, free_index, v, clamp_now, params_v)
            f = f + (v - v_prev) * g_cap
            jac[:, diag, diag] += g_cap
            ok = np.max(np.abs(f), axis=1) < 1e-10
            if ok.all():
                break
            dv = np.clip(np.linalg.solve(jac, -f[..., None])[..., 0], -0.3, 0.3)
            dv[ok] = 0.0
            v = v + dv
        converged &= ok
        for x, i in free_index.items():
            waves[x].append(v[:, i])
    return {x: np.stack(w) for x, w in waves.items()}, converged


class TestBitIdentityBattery:
    """The netlist solvers stay bitwise equal to the frozen element walk."""

    def _assert_matches_reference(self, solution, reference):
        voltages, converged, iterations = reference
        assert solution.iterations == iterations
        np.testing.assert_array_equal(solution.converged, converged)
        for node in voltages:
            np.testing.assert_array_equal(solution.voltage(node), voltages[node])

    def test_read_configuration(self):
        cell, params = _cell_problem()
        circuit = cell.build_circuit()
        clamps = _read_clamps(cell.vdd)
        solution = solve_dc(circuit, clamps, element_params=params)
        assert bool(np.all(solution.converged))
        self._assert_matches_reference(
            solution, _reference_solve_dc(circuit, clamps, params)
        )

    def test_write_configuration_exercises_restart(self):
        # Write clamps from the wrong initial guess force the solver through
        # its straggler-restart path, which must match the reference too.
        cell, params = _cell_problem(n=257, seed=5)
        circuit = cell.build_circuit()
        vdd = cell.vdd
        clamps = {"vdd": vdd, "wl": vdd, "bl": 0.0, "blb": vdd}
        solution = solve_dc(circuit, clamps, element_params=params)
        reference = _reference_solve_dc(circuit, clamps, params)
        assert solution.iterations > 120  # the restart pass ran
        self._assert_matches_reference(solution, reference)

    def test_multi_chunk_batch(self):
        cell, params = _cell_problem(n=2600, seed=13)
        circuit = cell.build_circuit()
        clamps = _read_clamps(cell.vdd)
        solution = solve_dc(circuit, clamps, element_params=params)
        self._assert_matches_reference(
            solution, _reference_solve_dc(circuit, clamps, params)
        )

    def test_mixed_elements_with_resistor_and_source(self):
        c = _inverter()
        c.add_resistor("rl", 50e3, "out", "0")
        c.add_current_source("ib", 2e-6, "out", "0")
        clamps = {"vdd": 1.2, "in": np.linspace(0.0, 1.2, 97)}
        self._assert_matches_reference(
            solve_dc(c, clamps), _reference_solve_dc(c, clamps)
        )

    def test_transient_matches_frozen_walk(self):
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
        result = simulate_transient(
            circuit, sources, caps, element_params=params, initial=initial,
            t_stop=120e-12, dt=1e-12,
        )
        waves, converged = _reference_transient(
            circuit, sources, caps, params, initial, t_stop=120e-12, dt=1e-12
        )
        np.testing.assert_array_equal(result.converged, converged)
        for node in waves:
            np.testing.assert_array_equal(result.waveform(node), waves[node])
