"""Batched transient simulation (backward Euler).

The paper's metrics are static, but a credible SRAM testbench also answers
dynamic questions — write completion time, read bitline discharge — so the
substrate includes a small transient engine: fixed-step backward Euler over
the same nodal formulation as the DC solver, with lumped node capacitances
and piecewise-linear source waveforms.  Everything is vectorised across the
Monte-Carlo batch exactly like :func:`repro.circuit.dc_solver.solve_dc`.

Backward Euler's stiff-decay (L-stability) suits latch dynamics: the
interesting behaviour is which basin the state settles into, not waveform
micro-detail, and BE never oscillates into the wrong one.

The engine shares the DC solver's per-element KCL assembly
(:func:`repro.circuit.netlist.assemble_kcl`), so custom elements work in
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.circuit.netlist import GROUND, Circuit, assemble_kcl


@dataclass
class TransientResult:
    """Waveforms of a transient run.

    Attributes
    ----------
    time:
        ``(n_steps + 1,)`` time points including t = 0.
    voltages:
        Node name -> ``(n_steps + 1, *batch)`` waveform (clamped nodes
        included).
    converged:
        Boolean array (batch shape): True where every Newton solve along the
        trajectory met tolerance.
    """

    time: np.ndarray
    voltages: Dict[str, np.ndarray]
    converged: np.ndarray

    def waveform(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise KeyError(f"no node named {node!r} in transient result") from None

    def crossing_time(self, node: str, level: float, rising: bool = True):
        """First time the waveform crosses ``level`` (NaN if it never does).

        Linear interpolation between steps; vectorised over the batch.
        """
        wave = self.waveform(node)
        time = np.asarray(self.time, dtype=np.float64)
        above = wave >= level
        if rising:
            hits = (~above[:-1]) & above[1:]
        else:
            hits = above[:-1] & (~above[1:])
        idx = np.argmax(hits.astype(np.int64), axis=0)
        any_hit = np.any(hits, axis=0)
        t0 = time[idx]
        t1 = time[idx + 1]
        v0 = np.take_along_axis(wave, idx[None, ...], axis=0)[0]
        v1 = np.take_along_axis(wave, (idx + 1)[None, ...], axis=0)[0]
        dv = v1 - v0
        frac = np.where(np.abs(dv) > 0,
                        (level - v0) / np.where(dv != 0, dv, np.asarray(1.0)),
                        np.asarray(0.0))
        crossing = t0 + np.clip(frac, 0.0, 1.0) * (t1 - t0)
        return np.where(any_hit, crossing, np.asarray(float("nan")))


def simulate_transient(
    circuit: Circuit,
    sources: Dict[str, object],
    capacitances: Dict[str, float],
    t_stop: float,
    dt: float,
    element_params: Optional[Dict[str, dict]] = None,
    initial: Optional[Dict[str, object]] = None,
    max_newton: int = 30,
    current_tol: float = 1e-10,
    settle_tol: Optional[float] = None,
    settle_after: float = 0.0,
) -> TransientResult:
    """Integrate the circuit from t = 0 to ``t_stop`` with step ``dt``.

    Parameters
    ----------
    sources:
        Node -> waveform.  A waveform is either a constant (scalar/array,
        batched) or a callable ``t -> value`` (e.g. a wordline pulse).
    capacitances:
        Node -> lumped capacitance (F) for every *free* node.  Free nodes
        without an entry get a small default (1 fF) so the system stays
        well-posed.
    initial:
        Initial voltages of free nodes (defaults to 0).
    settle_tol:
        Optional early-termination voltage tolerance: once every free node
        of every batch member moves less than this per step for three
        consecutive steps, the state is at a DC equilibrium and the
        remaining window is filled with the settled values.  A large
        speed-up for event-then-settle analyses (a write flip completes in
        tens of ps of a hundreds-of-ps window); leave None for waveforms
        that keep switching.
    settle_after:
        Earliest time at which early termination may trigger.  The engine
        cannot know a waveform's *future*, so the caller must declare when
        the last source event has happened (e.g. the wordline step time);
        successive source samples are additionally checked for equality as
        a safety net.
    """
    if dt <= 0 or t_stop <= 0:
        raise ValueError("dt and t_stop must be positive")
    element_params = {k: dict(v) for k, v in (element_params or {}).items()}
    for name in element_params:
        circuit.element(name)

    all_nodes = circuit.nodes
    for node in sources:
        if node not in all_nodes:
            raise KeyError(f"source node {node!r} not present in circuit")
    free_nodes = [n for n in all_nodes if n not in sources and n != GROUND]
    n_free = len(free_nodes)
    free_index = {n: i for i, n in enumerate(free_nodes)}

    # ---------------------------------------------------------- batching
    def waveform_value(value, t):
        return value(t) if callable(value) else value

    batch_values = []
    for value in sources.values():
        batch_values.append(np.shape(waveform_value(value, 0.0)))
    for kw in element_params.values():
        batch_values.extend(np.shape(v) for v in kw.values())
    if initial:
        batch_values.extend(np.shape(v) for v in initial.values())
    batch_shape = np.broadcast_shapes(*batch_values) if batch_values else ()
    n_batch = int(np.prod(batch_shape)) if batch_shape else 1

    def flat(value):
        """Flatten to the ``(n_batch,)`` axis; scalars stay zero-copy views."""
        arr = np.asarray(value, dtype=np.float64)
        shape = tuple(arr.shape)
        if shape == batch_shape:
            return np.reshape(arr, (n_batch,))
        if shape == ():
            return np.broadcast_to(arr, (n_batch,))
        return np.reshape(np.broadcast_to(arr, batch_shape), (n_batch,))

    params_flat = {
        name: {k: flat(v) for k, v in kw.items()}
        for name, kw in element_params.items()
    }
    cap = np.array(
        [float(capacitances.get(n, 1e-15)) for n in free_nodes]
    )
    if np.any(cap <= 0):
        raise ValueError("capacitances must be positive")
    g_cap = np.asarray(cap / dt)  # backward-Euler companion conductance

    ground = {GROUND: np.zeros(n_batch, dtype=np.float64)}

    n_steps = int(np.ceil(t_stop / dt))
    time = np.linspace(0.0, n_steps * dt, n_steps + 1)

    v = np.zeros((n_batch, n_free), dtype=np.float64)
    for node, value in (initial or {}).items():
        if node in free_index:
            v[:, free_index[node]] = flat(value)

    waves = {n: np.zeros((n_steps + 1, n_batch), dtype=np.float64)
             for n in all_nodes}
    converged_all = np.ones(n_batch, dtype=np.bool)

    def record(step, clamp_now):
        for node, idx in free_index.items():
            waves[node][step] = v[:, idx]
        for node, value in clamp_now.items():
            waves[node][step] = value

    clamp_now = {n: flat(waveform_value(w, 0.0)) for n, w in sources.items()}
    record(0, clamp_now)

    diag = np.arange(n_free)
    settled_streak = 0
    for step in range(1, n_steps + 1):
        t = time[step]
        clamp_prev = clamp_now
        clamp_now = {n: flat(waveform_value(w, t)) for n, w in sources.items()}
        v_prev = v
        # Newton on: KCL(v) + C (v - v_prev) / dt = 0
        ok = np.zeros(n_batch, dtype=np.bool)
        for _ in range(max_newton):
            f, jac = assemble_kcl(
                circuit, free_index, v, {**ground, **clamp_now}, params_flat
            )
            f = f + (v - v_prev) * g_cap
            jac[:, diag, diag] += g_cap
            err = (np.max(np.abs(f), axis=1) if n_free
                   else np.zeros(n_batch, dtype=np.float64))
            ok = err < current_tol
            if bool(np.all(ok)):
                break
            dv = np.linalg.solve(jac, -f[..., None])[..., 0]
            dv = np.clip(dv, -0.3, 0.3)
            dv[ok] = 0.0
            v = v + dv
        converged_all &= ok
        record(step, clamp_now)

        if settle_tol is not None and t > settle_after:
            sources_static = all(
                bool(np.all(clamp_now[n] == clamp_prev[n])) for n in clamp_now
            )
            moved = float(np.max(np.abs(v - v_prev))) if n_free else 0.0
            if sources_static and moved < settle_tol:
                settled_streak += 1
                if settled_streak >= 3:
                    # DC equilibrium reached everywhere: hold the state for
                    # the remainder of the window.
                    for node, idx in free_index.items():
                        waves[node][step + 1 :] = v[:, idx]
                    for node, value in clamp_now.items():
                        waves[node][step + 1 :] = value
                    break
            else:
                settled_streak = 0

    def unflatten(arr):
        if batch_shape:
            return np.reshape(arr, (n_steps + 1,) + batch_shape)
        return arr[:, 0]

    return TransientResult(
        time=time,
        voltages={n: unflatten(w) for n, w in waves.items()},
        converged=(
            np.reshape(converged_all, batch_shape) if batch_shape
            else np.reshape(converged_all, ())
        ),
    )


def step_waveform(t_step: float, before: float, after: float) -> Callable:
    """A step source: ``before`` for t < t_step, ``after`` afterwards."""

    def waveform(t: float):
        return after if t >= t_step else before

    return waveform


def pulse_waveform(t_rise: float, t_fall: float, low: float, high: float) -> Callable:
    """A rectangular pulse: low, then high on [t_rise, t_fall), then low."""
    if not t_rise < t_fall:
        raise ValueError("pulse requires t_rise < t_fall")

    def waveform(t: float):
        return high if t_rise <= t < t_fall else low

    return waveform
