"""Batched damped-Newton DC operating-point solver.

``solve_dc`` finds node voltages satisfying Kirchhoff's current law at every
unclamped node.  Everything is vectorised across an arbitrary batch axis:
node clamps and per-element parameters (threshold mismatches) may be arrays,
and the Newton update ``J dv = -f`` is solved for all batch members at once
with a stacked ``(batch, n, n)`` linear solve.

Robustness measures (all standard SPICE practice):

* per-iteration voltage-step limiting (damping),
* a ``gmin`` conductance added on the Jacobian diagonal,
* voltage clipping to a window around the supply rails,
* one automatic restart from an alternative initial guess for any batch
  members that fail to converge on the first attempt.

The Newton loop shrinks its **active set** as members converge: residual,
Jacobian and the linear solve are only evaluated over the still-running
batch rows.  In a typical Monte-Carlo batch most samples converge within a
few iterations and a handful of stragglers run long, so the tail iterations
cost a fraction of the full batch — this compounds with the large lockstep
multi-chain batches issued by the Gibbs engine.

Residual and Jacobian come from the per-element ``kcl_contributions`` walk
(:func:`repro.circuit.netlist.assemble_kcl`) shared with the transient
engine, so arbitrary element classes are supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.circuit.netlist import GROUND, Circuit, assemble_kcl


@dataclass
class DCSolution:
    """Result of a DC solve.

    Attributes
    ----------
    circuit:
        The solved circuit.
    voltages:
        Mapping from node name to an array of node voltages with the batch
        shape of the solve (clamped nodes included).
    converged:
        Boolean array (batch shape): which batch members satisfied the
        residual tolerance.
    iterations:
        Newton iterations actually executed (loop passes over the active
        set, restart pass included) — *not* the iteration cap: a batch that
        converges in 9 steps reports 9 even when ``max_iterations`` is 120.
    element_params:
        Per-element parameter overrides used for the solve, kept so branch
        currents can be recomputed consistently.
    """

    circuit: Circuit
    voltages: Dict[str, np.ndarray]
    converged: np.ndarray
    iterations: int
    element_params: Dict[str, dict]

    def voltage(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise KeyError(f"no node named {node!r} in solution") from None

    def branch_current(self, element_name: str) -> np.ndarray:
        """Branch current of a two/three-terminal element at the solution."""
        element = self.circuit.element(element_name)
        terminal_v = tuple(self.voltages[n] for n in element.nodes)
        params = self.element_params.get(element_name, {})
        return element.branch_current(terminal_v, **params)


def _broadcast_batch(values) -> tuple:
    """Common batch shape of scalars/arrays in ``values``."""
    shapes = [tuple(getattr(v, "shape", ())) or np.shape(v) for v in values]
    return np.broadcast_shapes(*shapes) if shapes else ()


def solve_dc(
    circuit: Circuit,
    clamps: Dict[str, object],
    element_params: Optional[Dict[str, dict]] = None,
    initial: Optional[Dict[str, object]] = None,
    max_iterations: int = 120,
    current_tol: float = 1e-11,
    max_step: float = 0.25,
    gmin: float = 1e-12,
    voltage_margin: float = 0.5,
) -> DCSolution:
    """Solve the DC operating point of ``circuit``.

    Parameters
    ----------
    clamps:
        Node-name to voltage mapping for ideal sources; ground is clamped to
        0 V automatically.  Values may be scalars or arrays (batched).
    element_params:
        Optional per-element keyword overrides, e.g.
        ``{"m1": {"delta_vth": dvth_array}}`` — this is how process-variation
        samples enter a solve.
    initial:
        Optional initial guesses for free nodes.  Bistable circuits (an SRAM
        cell!) converge to the stable state nearest the guess, so callers
        select the intended state here.
    """
    element_params = {name: dict(kw) for name, kw in (element_params or {}).items()}
    for name in element_params:
        circuit.element(name)  # validate names early

    all_nodes = circuit.nodes
    clamp_map = {GROUND: 0.0}
    for node, value in clamps.items():
        if node not in all_nodes:
            raise KeyError(f"clamped node {node!r} not present in circuit")
        clamp_map[node] = value
    free_nodes = [n for n in all_nodes if n not in clamp_map]

    # ---------------------------------------------------------- batching
    batch_values = list(clamp_map.values())
    for kw in element_params.values():
        batch_values.extend(kw.values())
    if initial:
        batch_values.extend(initial.values())
    batch_shape = _broadcast_batch(batch_values)
    n_batch = int(np.prod(batch_shape)) if batch_shape else 1

    def flat(value):
        """Flatten ``value`` to the ``(n_batch,)`` solve axis.

        Scalars stay zero-copy: a stride-0 broadcast view is enough for
        everything the solver does with clamps and parameters (read-only
        gathers), so no ``(n_batch,)`` buffer is materialised per scalar.
        """
        arr = np.asarray(value, dtype=np.float64)
        shape = tuple(arr.shape)
        if shape == batch_shape:
            return np.reshape(arr, (n_batch,))
        if shape == ():
            return np.broadcast_to(arr, (n_batch,))
        return np.reshape(np.broadcast_to(arr, batch_shape), (n_batch,))

    clamp_flat = {n: flat(v) for n, v in clamp_map.items()}
    params_flat = {
        name: {k: flat(v) for k, v in kw.items()} for name, kw in element_params.items()
    }

    rail_hi = max((float(np.max(v)) for v in clamp_flat.values()), default=1.0)
    rail_lo = min((float(np.min(v)) for v in clamp_flat.values()), default=0.0)
    # Node voltages are confined to a window around the rails (standard
    # SPICE practice for MOSFET circuits); widen ``voltage_margin`` for
    # circuits whose nodes legitimately swing beyond the rails (current
    # sources driving resistive loads, charge pumps, ...).
    v_min, v_max = rail_lo - voltage_margin, rail_hi + voltage_margin

    n_free = len(free_nodes)
    free_index = {n: i for i, n in enumerate(free_nodes)}

    def initial_guess(default: float, rows_idx=None):
        """Free-node guess rows — full batch, or just ``rows_idx`` of it."""
        n_rows = n_batch if rows_idx is None else int(rows_idx.shape[0])
        guess = np.full((n_rows, n_free), default, dtype=np.float64)
        for node, value in (initial or {}).items():
            if node in free_index:
                column = flat(value)
                if rows_idx is not None:
                    column = np.take(column, rows_idx, axis=0)
                guess[:, free_index[node]] = column
        return guess

    diag = np.arange(n_free)

    def residual_and_jacobian(v_act, rows_idx):
        """KCL residual and Jacobian over the batch rows ``rows_idx``.

        ``v_act`` holds only those rows; clamp voltages and element
        parameters are sliced to match, so the per-iteration cost scales
        with the surviving active set rather than the full batch.
        """
        def take(values):
            return np.take(values, rows_idx, axis=0)

        f, jac = assemble_kcl(
            circuit, free_index, v_act,
            {n: take(v) for n, v in clamp_flat.items()},
            {name: {k: take(v) for k, v in kw.items()}
             for name, kw in params_flat.items()},
        )
        jac[:, diag, diag] += gmin
        return f, jac

    def newton(v_free, active, iters: int, step_cap: float):
        """Damped Newton on the ``active`` batch members.

        The active set shrinks as members converge — converged rows are
        written back to ``v_free`` and drop out of every subsequent
        residual/Jacobian evaluation and linear solve.  Returns the updated
        voltages, the converged mask and the number of Newton iterations
        actually executed.
        """
        converged = ~active
        idx = np.nonzero(active)[0]
        v_act = v_free[idx]
        n_iters = 0
        for _ in range(iters):
            if int(idx.shape[0]) == 0:
                break
            f, jac = residual_and_jacobian(v_act, idx)
            err = np.max(np.abs(f), axis=1)
            done = err < current_tol
            if bool(np.any(done)):
                converged[idx[done]] = True
                v_free[idx[done]] = v_act[done]
                keep = ~done
                idx, v_act, f, jac = idx[keep], v_act[keep], f[keep], jac[keep]
                if int(idx.shape[0]) == 0:
                    break
            dv = np.linalg.solve(jac, -f[..., None])[..., 0]
            dv = np.clip(dv, -step_cap, step_cap)
            v_act = np.clip(v_act + dv, v_min, v_max)
            n_iters += 1
        else:
            # Iteration budget exhausted: one last residual check on the
            # stragglers (a final step may have just crossed the tolerance).
            if int(idx.shape[0]):
                f, _ = residual_and_jacobian(v_act, idx)
                done = np.max(np.abs(f), axis=1) < current_tol
                converged[idx[done]] = True
        if int(idx.shape[0]):
            v_free[idx] = v_act
        return v_free, converged, n_iters

    iterations = 0
    if n_free:
        v_free = initial_guess(0.5 * (rail_hi + rail_lo))
        active = np.ones(n_batch, dtype=np.bool)
        v_free, converged, n_iters = newton(
            v_free, active, max_iterations, max_step
        )
        iterations += n_iters
        if not bool(np.all(converged)):
            # Restart stragglers from a rail-adjacent guess with heavy
            # damping — built over the straggler rows only, not the batch.
            retry = ~converged
            retry_idx = np.nonzero(retry)[0]
            v_free[retry_idx] = initial_guess(0.9 * rail_hi, retry_idx)
            v_free, converged, n_iters = newton(
                v_free, retry, max_iterations, 0.05
            )
            iterations += n_iters
    else:
        v_free = np.zeros((n_batch, 0), dtype=np.float64)
        converged = np.ones(n_batch, dtype=np.bool)

    def unflatten(arr):
        out = np.reshape(arr, batch_shape)
        # flat() hands out read-only broadcast views for scalars; results
        # keep the historical contract of owning writable storage.
        if not out.flags.writeable:
            out = out.copy()
        return out

    voltages = {n: unflatten(clamp_flat[n]) for n in clamp_flat}
    for node, idx in free_index.items():
        voltages[node] = unflatten(v_free[:, idx])

    return DCSolution(
        circuit=circuit,
        voltages=voltages,
        converged=unflatten(converged),
        iterations=iterations,
        element_params={
            name: {k: unflatten(v) for k, v in kw.items()}
            for name, kw in params_flat.items()
        },
    )
