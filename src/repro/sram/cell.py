"""The 6-T SRAM cell and its batched DC analyses.

Device naming follows the paper's Fig. 5 conventions as reverse-engineered
from three statements in Section V:

* the read current is "the drain current of transistor M3" with WL and both
  bitlines at VDD — M3 is the *left access* transistor;
* read-current variation is dominated by M1 and M3 — M1 is the *left
  pull-down* in series with that access path;
* the WNM-critical pair is (M3, M5) — M5 is the *left pull-up* the write
  must overpower through M3.

Hence the device order M1..M6 used everywhere in this library::

    M1 = pd_l   left pull-down (NMOS)    M2 = pd_r   right pull-down (NMOS)
    M3 = ax_l   left access    (NMOS)    M4 = ax_r   right access    (NMOS)
    M5 = pu_l   left pull-up   (PMOS)    M6 = pu_r   right pull-up   (PMOS)

with storage nodes ``q`` (left, drain of M1/M5, inner terminal of M3) and
``qb`` (right).

Performance note: the butterfly-curve and read-state analyses are the hot
path of every Monte-Carlo experiment, so they bypass the general netlist
solver and evaluate the half-cell KCL directly with a *vectorised
safeguarded Newton* — the single-node KCL residual is strictly increasing in
the node voltage (every device's output conductance is positive), so a
bracketed Newton/bisection hybrid is globally convergent.

A Gibbs conditional simulates one or two rows at a time, so those solves
run on arrays of a few hundred lanes, where numpy's per-call dispatch — not
arithmetic — sets the cost.  Six measures keep the dispatch count down:

* ``half_cell_vtc`` solves both butterfly sides in one coarse-grid plus one
  full-grid Newton loop (not two of each);
* :func:`_solve_monotone_node` makes no per-iteration ``np.errstate``
  context, ``np.any`` wrapper or negated-mask temporary: an unusable
  derivative divides by inf instead of by itself, and converged lanes are
  counted with ``np.count_nonzero``.  On a 2-vCPU VM (numpy 2.4) that
  made a cold VTC solve 12-14% faster at one and two rows and 6% at
  4,096;
* the half-cell residual computes each device's pinch-off voltage and the
  EKV interpolation at its held terminal once per solve, so a Newton
  iteration evaluates one interpolation per device, not two;
* while the active lane set is small, that residual evaluates the
  pull-down, pull-up and access devices in one stacked EKV call (one
  dispatch per ufunc for all three);
* below ``_READ_STACKED_MAX_LANES`` lanes the read-state Newton pass
  evaluates its six devices in one stacked call;
* the read-upset fixed point bisects in speculative rounds: one batched
  loop-map call evaluates every midpoint the next d sequential steps can
  visit (a depth-d bracket tree, ``2**d - 1`` lanes per straggler, d the
  deepest that fits ``_BISECT_ROUND_LANES`` for the lanes still
  bisecting), then the sequential decisions walk the tree.  One straggler
  takes at most 4 rounds instead of 30; ~870 stragglers start at d = 1,
  the plain loop.

A Monte-Carlo chunk (4,096 rows) is the opposite case: arithmetic per
lane sets the cost.  Two measures cut it in the read-state Newton pass,
which the golden read-current Monte Carlo spends nearly all its time in:

* lanes leave the pass as they converge (mostly at iterations 5-8 of a
  chunk), as they leave :func:`_solve_monotone_node`, and the pass
  switches to the stacked call once fewer than
  ``_READ_STACKED_MAX_LANES`` remain;
* the per-device form computes each access device's pinch-off voltage and
  drain interpolation once per solve, since the read configuration holds
  its gate, drain and bulk.

Read-upset stragglers are the same case: the fixed point's scan visits 33
grid points per straggler, each of which once cost two cold Newton solves.
Two measures cut it: the scan solves the far half-cell once per distinct
far-side mismatch row (the read-current metric varies only M1 and M3, so
all its stragglers share one 33-lane solve), and it decides each grid
point from the sign of one near-node residual, Newton-solving only points
inside ``_READ_SCAN_BAND``.  On 65,536 N((3, -3), I) read-current rows,
in 4,096-row chunks, that cut the read-state solve from 1.99 s to 0.63 s
on the same VM.  A Gibbs simulation's few stragglers pay dispatch instead,
and a third measure serves them: lanes without far-side mismatch (every
lane of the read-current metric) read the far response from
``_FAR_RESPONSES``, a per-process memo of the nominal far half-cell at the
scan points and the scan cells' midpoints, so neither the scan nor the
final loop-map evaluation of a lane that never bisected solves the far
node.  With the predicted pass's cap below, a 6-row call with 5 such
stragglers fell from 3.2 ms to 1.9 ms on the same VM, its fixed point
from 1.7 ms to 0.74 ms.

Lanes never interact, a grouped far lane sees the very inputs it sees
alone, a memoized far lane the very inputs it is solved from, and every
speculative midpoint is formed from its own bracket exactly as the
sequential step forms it, so all eleven measures are bit-identical per
lane to the per-side, per-device, sequential solve; the residual's sign is
the converged root's decision wherever it lies outside the band
(:meth:`SixTransistorCell._read_fixed_point` says why).
``benchmarks/bench_backend_kernels.py`` times them against that solve, kept
as the oracle in ``tests/test_sram_cell.py``.  Only the Newton lane
counters see the difference: they count the speculative lanes too, the
scan no longer adds two solved lanes per straggler and grid point, and a
memoized far response is solved once per process and counted as
``read.far_memo_lanes``, not in ``newton.*``.

Two measures change results, each within a stated bound:

* a straggler stops bisecting once its bracket bounds the read current
  within ``_READ_CURRENT_TOL`` (1 pA), where the oracle always takes 30
  steps.  A read-upset cell's current has collapsed to femtoamps, so most
  stragglers stop right after the scan.  Every read current stays within
  the tolerance of the oracle's (:meth:`SixTransistorCell._read_fixed_point`
  says why), lanes the Newton pass converges are untouched, and with the
  tolerance at ``-inf`` the fixed point is the oracle's bit for bit;
* each Newton lane starts at its first-order predicted read state, the
  nominal state moved along its mismatch tangent, where the oracle starts
  every lane at the stored state (low node 0.05 V, high node VDD).  On a
  golden Monte-Carlo chunk that takes Newton from 6.0 lane-iterations per
  lane to 2.8.  A lane is accepted only at the stored state, clear of the
  read-upset fold (a stable root with loop gain at most 0.9, low node below
  high node); any other converged lane reruns from the stored start, and
  lanes left unconverged go to the fixed point as before, so those lanes
  are the oracle's.  An accepted lane lands
  within Newton's own tolerance of the root the stored start reaches, and
  on ~1.2M golden, tail and fold-grid lanes none changed pass/fail
  (``benchmarks/bench_read_current_tolerance.py``).  The pass from the
  predicted start stops at its 10th iteration, the stored-start pass at
  its 14th, which moved none of those lanes (``_READ_PREDICTED_ITERATIONS``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.circuit.netlist import Circuit
from repro.telemetry import context as _telemetry
from repro.devices.mosfet import (
    Mosfet,
    ekv_current_and_derivs,
    ekv_drain_moving,
    ekv_pinch_off,
    ekv_source_moving,
    ekv_specific_current,
    ekv_terminal,
)
from repro.devices.technology import (
    DEFAULT_GEOMETRIES,
    DeviceGeometry,
    Technology,
    default_technology,
)

#: Device names in paper order (index i corresponds to transistor M(i+1)).
DEVICE_NAMES: Tuple[str, ...] = ("pd_l", "pd_r", "ax_l", "ax_r", "pu_l", "pu_r")

#: Map from paper transistor label to index in DEVICE_NAMES.
PAPER_INDEX: Dict[str, int] = {f"M{i + 1}": i for i in range(6)}


#: Residual (A) under which :func:`_solve_monotone_node` stops a lane.
_MONOTONE_TOL = 2e-12


def _solve_monotone_node(residual, lo: float, hi: float, shape,
                         iterations: int = 26, tol: float = _MONOTONE_TOL,
                         v0=None, counted: bool = True):
    """Solve ``residual(v) = 0`` for a strictly increasing residual.

    ``residual`` maps a *flat* array of node voltages plus an optional
    flat-index array (``None`` meaning "all lanes") to ``(f, dfdv)`` for
    those lanes.  Uses Newton steps safeguarded by bisection on the bracket
    ``[lo, hi]``; globally convergent for monotone residuals.

    The loop maintains a shrinking **active set**: a lane whose residual
    drops under ``tol`` is written back and exits immediately, so every
    subsequent residual evaluation — the dominant cost, three transistor
    models per lane — covers only the still-running lanes.  In a
    Monte-Carlo batch the bulk converges within a few Newton steps and a
    handful of collapsed-lobe stragglers run long, so the tail iterations
    cost a fraction of the full batch (the same pattern as the DC solver's
    Newton loop).  Lane freezing also keeps batch members decoupled: a
    converged lane's value never depends on how long *other* lanes keep
    the loop alive (a batch-coupling bug caught by importance-sampling
    weight explosions; see tests/test_sram_cell.py).

    ``v0`` (broadcastable to ``shape``) seeds the first Newton step instead
    of the bracket midpoint — the grid-continuation warm start of
    :meth:`SixTransistorCell.half_cell_vtc`.  The bracket stays the full
    ``[lo, hi]``, so a poor warm start costs iterations, never correctness.

    ``counted=False`` keeps the solve out of the ``newton.*`` counters: a
    once-per-process memo fill counts itself.
    """
    n = int(np.prod(shape)) if shape else 1
    lo_act = np.full((n,), float(lo), dtype=np.float64)
    hi_act = np.full((n,), float(hi), dtype=np.float64)
    if v0 is None:
        v_act = 0.5 * (lo_act + hi_act)
    else:
        v_act = np.clip(
            np.reshape(np.broadcast_to(np.asarray(v0, dtype=np.float64), shape), (n,)),
            float(lo), float(hi),
        )
    v = np.empty((n,), dtype=np.float64)
    active = np.arange(n)
    recorder = _telemetry.get_active() if counted else None
    lane_iters = 0
    loop_iters = 0
    for _ in range(iterations):
        if recorder is not None:
            lane_iters += int(active.shape[0])
            loop_iters += 1
        f, dfdv = residual(v_act, active)
        done = np.abs(f) < tol
        n_done = np.count_nonzero(done)
        if n_done:
            # Early lane exit: freeze converged lanes at the voltage their
            # residual was just evaluated at and drop them from the set.
            v[active[done]] = v_act[done]
            if n_done == done.shape[0]:
                active = active[:0]
                break
            keep = ~done
            active = active[keep]
            v_act, lo_act, hi_act = v_act[keep], lo_act[keep], hi_act[keep]
            f, dfdv = f[keep], dfdv[keep]
        # Tighten the bracket using the sign of the monotone residual.
        above = f > 0.0
        hi_act = np.where(above, v_act, hi_act)
        lo_act = np.where(above, lo_act, v_act)
        # The Newton step; where the derivative is unusable it divides by
        # inf instead, and the lane bisects below, so that step is unused.
        # v - f/d is bitwise v + (-f/d).
        usable = dfdv > 0.0
        candidate = v_act - f / np.where(usable, dfdv, np.inf)
        # Fall back to bisection wherever Newton leaves the bracket or the
        # derivative is unusable.
        inside = (candidate > lo_act) & (candidate < hi_act) & usable
        v_act = np.where(inside, candidate, 0.5 * (lo_act + hi_act))
    if int(active.shape[0]):
        v[active] = v_act
    if recorder is not None:
        recorder.count("newton.lane_solves", n)
        recorder.count("newton.lane_iters", lane_iters)
        recorder.count("newton.solves", 1)
        recorder.count("newton.loop_iters", loop_iters)
    return np.reshape(v, shape)


#: Input-grid stride of the coarse continuation pass in ``half_cell_vtc``.
_VTC_COARSE_STRIDE = 8

#: Newton lanes per row block of ``half_cell_vtc``: 256 rows of a two-side
#: solve on the metrics' 81-point grid.  Blocks bound peak memory; on a
#: 2-vCPU AVX-512 VM (numpy 2.4), 4,096-row RNM chunks also ran ~20% faster
#: in 256-row blocks than in 2,048-row ones.
_VTC_BLOCK_LANES = 2 * 81 * 256

#: Active-lane count under which the half-cell residual evaluates its three
#: devices in one stacked EKV call instead of three per-device calls.  On
#: the same VM the stacked call was 1.3-1.6x faster up to 512 lanes, 1.2x
#: at 1,024, within 8% from 2,048 to 8,192 and 0.84x at 16,384; above this
#: count the per-device form also keeps the temporaries small.
_STACKED_MAX_LANES = 1024

#: Lanes of one speculative bisection round in ``_read_fixed_point``: a
#: round of depth d evaluates the loop map at (2**d - 1) * stragglers lanes.
#: On the same VM one loop-map evaluation took 0.8 ms at 1 lane, 1.4 ms at
#: 64, 1.8 ms at 256, then 2.9 ms at 512 and 4.4 ms at 1,024, so up to
#: ~256 lanes a deeper tree is nearly free.  With this cap one straggler
#: took 7.7 ms against 26 ms sequentially (interleaved min-of-15); caps of
#: 384 and 512 were within noise of it.
_BISECT_ROUND_LANES = 256

#: Read current (A) to which ``_read_fixed_point`` resolves a straggler:
#: its bisection stops once the low node's access current at the two
#: bracket ends differs by at most this much.  That current falls strictly
#: as the low node rises, so the bracket then bounds the read current of
#: every voltage in it, the fixed point's and the returned one's included.
#: 1 pA is 3e-8 of the read-current example's 35 uA spec; a read-upset
#: cell's current has already collapsed to femtoamps, and most leave the
#: 33-point scan within it.
_READ_CURRENT_TOL = 1e-12

#: Newton iterations of the read-state pass, then the scan points and the
#: bisection-step cap of the least-fixed-point construction behind it.
_READ_NEWTON_ITERATIONS = 14
_READ_SCAN_POINTS = 33
_READ_BISECT_STEPS = 30

#: Newton iterations of the guarded pass from the predicted start.  Run to
#: 14 on the ~1.2M lanes of ``benchmarks/bench_read_current_tolerance.py``,
#: that pass converged no lane after its 10th iteration, and its guard
#: accepted none after the 8th: lanes converging at the 9th and 10th are
#: rejected and rerun from the stored start, as before.  Lanes it leaves
#: unconverged go to the fixed point, where they went after 14.
_READ_PREDICTED_ITERATIONS = 10

#: Near-node residual (A) at or beyond which the scan of
#: ``_read_fixed_point`` takes a grid point's decision from the residual's
#: sign.  A converged near-node solve leaves a residual under
#: ``_MONOTONE_TOL``, so past twice that the sign is the one its root gives;
#: the points inside are Newton-solved.
_READ_SCAN_BAND = 2.0 * _MONOTONE_TOL

#: Residual tolerance (A) of the read-state Newton pass: device currents
#: are ~1e-4 A and node conductances ~1e-4 S, so 3e-11 A resolves node
#: voltages to well under a microvolt — far tighter than any metric needs,
#: yet loose enough that near-fold (read-upset boundary) points, where
#: Newton slows to linear convergence, still terminate quickly.
_READ_TOL = 3e-11

#: Mismatch step (V) of the central differences behind the first-order
#: read-state prediction.
_READ_SENSITIVITY_STEP = 1e-4

#: Fold margin of the read-state guard: a lane converged from its predicted
#: start is accepted only where ``det J >= _READ_FOLD_MARGIN * j11 * j22``,
#: i.e. where the cell's loop gain ``j12 * j21 / (j11 * j22)`` is at most
#: 0.9.  The gain reaches 1 at the read-upset fold, where a residual under
#: ``_READ_TOL`` no longer tells a root from the ghost of one: on a grid
#: across the fold, the predicted start met the tolerance at ghosts with a
#: positive determinant (gain 1 - 1.4e-5 and 1 - 1.9e-3) past the fold,
#: where the stored start ran out of iterations and the fixed point found
#: the flipped state.  Every lane the stored start needed 12 or more
#: iterations for had gain above 0.92 at its predicted-start root, so a
#: lane inside the margin reruns from the stored start.
_READ_FOLD_MARGIN = 0.1

#: First-order read-state predictions ``(v_nom, S)`` by cell: keyed by the
#: six devices' parameters, VDD and the stored state, and kept off the cell
#: so that pickling a metric (its ledger fingerprint) never sees them.
_READ_PREDICTIONS: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}

#: Nominal far half-cell responses of the fixed point's scan by cell design
#: and far side (:meth:`SixTransistorCell._nominal_far_response`), kept off
#: the cell like ``_READ_PREDICTIONS``.
_FAR_RESPONSES: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}

#: Lane count under which the read-state Newton pass evaluates its six
#: devices in one stacked EKV call instead of six per-device calls.  On the
#: same VM a whole read-state solve was 2.4-2.9x faster stacked at 1-64
#: lanes, 1.4-1.9x from 256 to 1,024 and 1.2x at 1,280, then 0.79x at 1,536
#: and 0.65x at 4,096 lanes, where the per-device calls' scalar terminals
#: save more arithmetic than the stacked call saves dispatches.  With the
#: access-device terms hoisted, one residual evaluation was 1.8x faster
#: stacked at 256 lanes, 1.2x at 1,024, even at 1,280, then 0.56x at 1,536
#: and 0.42x at 4,096 lanes, so the crossover stands.
_READ_STACKED_MAX_LANES = 1280

#: Gate, drain, source and bulk node of each device in the read
#: configuration (word line and both bitlines at VDD).
_READ_TERMINALS = {
    "pd_l": ("qb", "q", "0", "0"), "pu_l": ("qb", "q", "vdd", "vdd"),
    "ax_l": ("vdd", "vdd", "q", "0"), "pd_r": ("q", "qb", "0", "0"),
    "pu_r": ("q", "qb", "vdd", "vdd"), "ax_r": ("vdd", "vdd", "qb", "0"),
}


def _bisection_depth(n_lanes: int) -> int:
    """Steps per speculative bisection round for ``n_lanes`` stragglers:
    the deepest tree whose ``2**d - 1`` midpoints per lane fit in
    ``_BISECT_ROUND_LANES`` (at least one step)."""
    depth = 1
    while ((2 << depth) - 1) * max(n_lanes, 1) <= _BISECT_ROUND_LANES:
        depth += 1
    return depth


def _stacked_parameters(devices):
    """``(polarity, vth, beta, n, lam)`` of ``devices`` as ``(k, 1)``
    columns: the device parameters of one stacked EKV call."""
    return [
        np.asarray([[float(getattr(dev.params, name))] for dev in devices],
                   dtype=np.float64)
        for name in ("polarity", "vth", "beta", "n", "lam")
    ]


def _interp_along_axis0(x_full, x_coarse, y_coarse):
    """Linearly interpolate ``y_coarse`` onto ``x_full`` along axis 0.

    ``y_coarse`` has shape ``(len(x_coarse), *batch)``; the result has shape
    ``(len(x_full), *batch)``.  Only used to seed Newton iterations, so
    plain piecewise-linear accuracy is plenty.
    """
    pos = np.searchsorted(x_coarse, x_full, side="right") - 1
    pos = np.clip(pos, 0, int(x_coarse.shape[0]) - 2)
    x0 = x_coarse[pos]
    span = x_coarse[pos + 1] - x0
    frac = np.where(span > 0.0, (x_full - x0) / np.where(span > 0.0, span, 1.0), 0.0)
    frac = np.reshape(frac, (-1,) + (1,) * (y_coarse.ndim - 1))
    y0 = np.take(y_coarse, pos, axis=0)
    return y0 + frac * (np.take(y_coarse, pos + 1, axis=0) - y0)


class SixTransistorCell:
    """A 6-T SRAM cell with per-device mismatch hooks.

    Parameters
    ----------
    technology:
        Process description; defaults to the library's 90nm-flavoured corner.
    geometries:
        Mapping with keys ``pull_down`` / ``access`` / ``pull_up`` overriding
        the default transistor sizes.
    """

    def __init__(
        self,
        technology: Optional[Technology] = None,
        geometries: Optional[Mapping[str, DeviceGeometry]] = None,
    ):
        self.technology = technology or default_technology()
        geo = dict(DEFAULT_GEOMETRIES)
        if geometries:
            unknown = set(geometries) - set(geo)
            if unknown:
                raise KeyError(f"unknown geometry roles: {sorted(unknown)}")
            geo.update(geometries)
        self.geometries = geo
        tech = self.technology
        role_of = {
            "pd_l": "pull_down", "pd_r": "pull_down",
            "ax_l": "access", "ax_r": "access",
            "pu_l": "pull_up", "pu_r": "pull_up",
        }
        self.devices: Dict[str, Mosfet] = {}
        self.sigma_vth: Dict[str, float] = {}
        for name in DEVICE_NAMES:
            role = role_of[name]
            geometry = geo[role]
            params = tech.pmos(geometry) if name.startswith("pu") else tech.nmos(geometry)
            self.devices[name] = Mosfet(params)
            self.sigma_vth[name] = tech.sigma_vth(geometry)
        self.vdd = tech.vdd

    # ----------------------------------------------------------- netlist
    def build_circuit(self) -> Circuit:
        """Full-cell netlist for use with the general DC solver.

        Nodes: ``q``, ``qb`` (storage), ``bl``, ``blb``, ``wl``, ``vdd``.
        Used by examples and cross-validation tests; the Monte-Carlo hot
        paths use the specialised solvers below instead.
        """
        c = Circuit("sram6t")
        dev = {name: self.devices[name].params for name in DEVICE_NAMES}
        c.add_mosfet("pd_l", dev["pd_l"], drain="q", gate="qb", source="0")
        c.add_mosfet("pu_l", dev["pu_l"], drain="q", gate="qb", source="vdd", bulk="vdd")
        c.add_mosfet("ax_l", dev["ax_l"], drain="bl", gate="wl", source="q")
        c.add_mosfet("pd_r", dev["pd_r"], drain="qb", gate="q", source="0")
        c.add_mosfet("pu_r", dev["pu_r"], drain="qb", gate="q", source="vdd", bulk="vdd")
        c.add_mosfet("ax_r", dev["ax_r"], drain="blb", gate="wl", source="qb")
        return c

    # ------------------------------------------------- half-cell response
    def _matched_sides(self, sides) -> bool:
        """Whether every side in ``sides`` has the same device parameters."""
        return len(set(sides)) == 1 or all(
            self.devices[role + "_l"].params == self.devices[role + "_r"].params
            for role in ("pd", "pu", "ax")
        )

    def _half_cell_residual(self, sides, vin, bl_voltage, wl_voltage,
                            delta_vth: Mapping[str, np.ndarray], shape):
        """Residual factory: KCL current leaving the storage node of each side.

        ``sides`` is a side name with its bitline voltage ``bl_voltage``, or
        a tuple of side names with one bitline voltage each.  The lanes are
        side-major: each side contributes ``prod(shape)`` lanes, its input
        voltage and that side's per-device mismatches broadcast to ``shape``
        and flattened once, so the returned ``residual(v, idx)`` can
        evaluate any *subset* of lanes — the contract
        :func:`_solve_monotone_node`'s active-set loop relies on.  Subset
        evaluation is elementwise, hence bit-identical to evaluating the
        full batch and slicing.  The sides must share device parameters
        (:meth:`_matched_sides`).

        Only the node voltage moves during a solve: it is the drain of the
        pull-down and pull-up and the source of the access device.  So each
        device's pinch-off voltage and the EKV interpolation at its held
        terminal (pull-down and pull-up source, access drain) are computed
        once here, and a Newton iteration evaluates one interpolation per
        device, the moving terminal's, plus the one partial it needs
        (:func:`~repro.devices.mosfet.ekv_drain_moving`).  Below
        ``_STACKED_MAX_LANES`` active lanes the three devices run stacked,
        with a leading device axis and ``(3, 1)`` parameter columns — a
        third of the ufunc dispatches, which is what a one- or two-row
        Gibbs simulation pays for.  Every form performs the elementwise
        operations of the full EKV evaluation in the same order, so every
        lane is bit-identical whichever form evaluates it, and the switch
        may happen mid-solve.
        """
        if isinstance(sides, str):
            sides, bl_voltage = (sides,), (bl_voltage,)
        suffixes = ["_l" if side == "left" else "_r" for side in sides]
        devices = [self.devices[role + suffixes[0]] for role in ("pd", "pu", "ax")]
        vdd = self.vdd
        # Per-lane gate, held terminal and mismatch of the pull-down,
        # pull-up and access device: the loop-invariant EKV inputs.
        held = np.empty((3, 3, len(sides)) + tuple(shape), dtype=np.float64)
        held[0, 0:2] = np.asarray(vin, dtype=np.float64)
        held[0, 2] = wl_voltage
        held[1, 0] = 0.0
        held[1, 1] = vdd
        for k, (suffix, bl) in enumerate(zip(suffixes, bl_voltage)):
            held[1, 2, k] = bl
            for row, role in enumerate(("pd", "pu", "ax")):
                held[2, row, k] = np.asarray(
                    delta_vth.get(role + suffix, 0.0), dtype=np.float64
                )
        gate, held_v, delta = np.reshape(held, (3, 3, -1))
        polarity, vth, beta, n, lam = _stacked_parameters(devices)
        vb = np.asarray([[0.0], [vdd], [0.0]], dtype=np.float64)
        i_spec = ekv_specific_current(beta, n)
        vp = ekv_pinch_off(gate, vb, polarity, vth, n, delta)
        held_n, f_held, _ = ekv_terminal(held_v, vb, polarity, vp)
        terms = np.stack([vp, held_n, f_held])

        def residual(v_node, idx=None):
            vp_x, held_x, f_held_x = (
                terms if idx is None else np.take(terms, idx, axis=2)
            )
            if int(v_node.shape[0]) < _STACKED_MAX_LANES:
                v_n, f, df = ekv_terminal(v_node, vb, polarity, vp_x)
                (i_pd, i_pu), (dd_pd, dd_pu) = ekv_drain_moving(
                    i_spec[:2], lam[:2], polarity[:2], (held_x[:2], f_held_x[:2]),
                    (v_n[:2], f[:2], df[:2]),
                )
                (i_ax,), (ds_ax,) = ekv_source_moving(
                    i_spec[2:], lam[2:], polarity[2:], (held_x[2:], f_held_x[2:]),
                    (v_n[2:], f[2:], df[2:]),
                )
            else:
                (i_pd, dd_pd), (i_pu, dd_pu), (i_ax, ds_ax) = (
                    moving(i_spec[k], lam[k], polarity[k], (held_x[k], f_held_x[k]),
                           ekv_terminal(v_node, vb[k], polarity[k], vp_x[k]))
                    for k, moving in enumerate(
                        (ekv_drain_moving, ekv_drain_moving, ekv_source_moving)
                    )
                )
            # i_pd and i_pu leave the node (their drain is the node); the
            # access current flows bitline -> node, so it enters the node.
            return i_pd + i_pu - i_ax, dd_pd + dd_pu - ds_ax

        return residual

    def half_cell_vtc(
        self,
        side,
        vin_grid: np.ndarray,
        bl_voltage,
        delta_vth: Optional[Mapping[str, np.ndarray]] = None,
        wl_voltage: Optional[float] = None,
        v0=None,
    ):
        """Voltage transfer curves of half-cells with their access devices.

        Solves the storage-node voltage for every input-grid point and every
        mismatch sample at once.  ``side`` is ``"left"``, ``"right"``, or a
        tuple of side names solved together; each VTC has shape
        ``(n_grid, *batch)`` where ``batch`` is the broadcast shape of the
        ``delta_vth`` arrays (``(n_grid,)`` if no mismatch given).  A single
        side name returns one array, a tuple returns a tuple of arrays.

        ``bl_voltage`` selects the configuration — VDD for read (both
        bitlines precharged) and 0 V for the write-driven side — and is one
        voltage per side when ``side`` is a tuple.

        Every side's lanes run in one coarse-grid Newton loop plus one
        full-grid loop, in row blocks of at most ``_VTC_BLOCK_LANES`` lanes
        (a bound on peak memory).  Lanes never interact, so each side's
        curve is bit-identical to solving that side alone.

        ``v0`` optionally seeds the Newton solve with a previously converged
        VTC of matching shape (one seed, or one per side, ``None`` for a
        cold side) — the cross-round warm start of :mod:`repro.circuit.warm`
        — replacing the internal coarse grid-continuation pass.  As with
        that pass, the full ``[lo, hi]`` bracket and tolerance are retained
        — a stale seed costs Newton iterations, never correctness — so warm
        results agree with cold ones to solver tolerance but are not bitwise
        identical.  A seed whose shape does not match the solve is ignored.
        """
        single = isinstance(side, str)
        sides = (side,) if single else tuple(side)
        for name in sides:
            if name not in ("left", "right"):
                raise ValueError(f"side must be 'left' or 'right', got {name!r}")
        n_sides = len(sides)
        bls = (bl_voltage,) if single else tuple(bl_voltage)
        seeds = (v0,) if single else (tuple(v0) if v0 is not None else (None,) * n_sides)
        if len(bls) != n_sides or len(seeds) != n_sides:
            raise ValueError("bl_voltage and v0 need one entry per side")
        if not self._matched_sides(sides):
            return tuple(
                self.half_cell_vtc(s, vin_grid, b, delta_vth, wl_voltage, v)
                for s, b, v in zip(sides, bls, seeds)
            )
        delta_vth = dict(delta_vth or {})
        wl_voltage = self.vdd if wl_voltage is None else float(wl_voltage)
        bls = tuple(float(b) for b in bls)
        vin_grid = np.asarray(vin_grid, dtype=np.float64)
        if vin_grid.ndim != 1:
            raise ValueError("vin_grid must be 1-D")

        batch_shape = np.broadcast_shapes(*(np.shape(d) for d in delta_vth.values())) \
            if delta_vth else ()
        n_grid = int(vin_grid.shape[0])
        n_rows = int(np.prod(batch_shape)) if batch_shape else 1
        shape = (n_grid,) + batch_shape
        # Rows are flattened so they can be blocked; per-lane results do
        # not depend on the block they run in.
        deltas = {
            name: np.reshape(
                np.broadcast_to(np.asarray(d, dtype=np.float64), batch_shape), (n_rows,)
            )
            for name, d in delta_vth.items()
        }
        seeds = [
            None if s is None or np.shape(s) != shape
            else np.reshape(np.asarray(s, dtype=np.float64), (n_grid, n_rows))
            for s in seeds
        ]
        lo, hi = -0.2, self.vdd + 0.2
        # Grid continuation for the sides without a seed: solve every
        # ``stride``-th input point first, then seed the full solve by
        # linear interpolation along the grid axis.  The VTC is continuous
        # in the input voltage, so the interpolant lands within a few Newton
        # steps of the answer; the full solve keeps the complete [lo, hi]
        # bracket, so convergence (and the bisection safety net) is
        # untouched — only the Newton starting point changes, within the
        # solver tolerance.  Grids too short to thin start at the midpoint.
        continuation = n_grid >= 2 * _VTC_COARSE_STRIDE
        if continuation:
            coarse_idx = np.arange(0, n_grid, _VTC_COARSE_STRIDE)
            if int(coarse_idx[-1]) != n_grid - 1:
                coarse_idx = np.concat(
                    [coarse_idx, np.asarray([n_grid - 1], dtype=coarse_idx.dtype)]
                )
            vin_coarse = np.take(vin_grid, coarse_idx, axis=0)
        out = np.empty((n_sides, n_grid, n_rows), dtype=np.float64)
        block = max(1, _VTC_BLOCK_LANES // (n_sides * n_grid))
        for r0 in range(0, n_rows, block):
            r1 = min(r0 + block, n_rows)
            d_block = {name: d[r0:r1] for name, d in deltas.items()}
            init = [None if s is None else s[:, r0:r1] for s in seeds]
            cold = [k for k, s in enumerate(init) if s is None]
            if cold and continuation:
                coarse_shape = (int(vin_coarse.shape[0]), r1 - r0)
                coarse_res = self._half_cell_residual(
                    tuple(sides[k] for k in cold), vin_coarse[:, None],
                    tuple(bls[k] for k in cold), wl_voltage, d_block,
                    coarse_shape,
                )
                v_coarse = _solve_monotone_node(
                    coarse_res, lo, hi, (len(cold),) + coarse_shape
                )
                for j, k in enumerate(cold):
                    init[k] = _interp_along_axis0(vin_grid, vin_coarse, v_coarse[j])
            if any(s is not None for s in init):
                # A side still without a seed starts where the solver's own
                # cold start would: the bracket midpoint.
                midpoint = np.full((n_grid, r1 - r0), 0.5 * (lo + hi), dtype=np.float64)
                v_init = np.stack([midpoint if s is None else s for s in init])
            else:
                v_init = None
            residual = self._half_cell_residual(
                sides, vin_grid[:, None], bls, wl_voltage, d_block,
                (n_grid, r1 - r0),
            )
            out[:, :, r0:r1] = _solve_monotone_node(
                residual, lo, hi, (n_sides, n_grid, r1 - r0), v0=v_init
            )
        vtcs = tuple(np.reshape(out[k], shape) for k in range(n_sides))
        return vtcs[0] if single else vtcs

    # ------------------------------------------------------- read state
    def solve_read_state(
        self,
        delta_vth: Optional[Mapping[str, np.ndarray]] = None,
        stored_zero_at_q: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """DC state ``(v_q, v_qb)`` during a read access (WL=BL=BLB=VDD).

        If the stored state still exists it is returned; if large mismatch
        has destroyed it (static read upset) the solver lands on the
        flipped state — exactly the physics that makes the read-current
        failure region of Section V-B non-convex.

        Strategy: batched damped 2-D Newton for the bulk of the batch, then
        the monotone least-fixed-point construction
        (:meth:`_read_fixed_point`) for any members Newton left unconverged
        — typically samples at or past the read-upset fold, where Newton
        oscillates and relaxation slows critically, but where the bracketed
        fixed-point bisection stops at the read-current tolerance
        regardless.

        Each lane's Newton pass starts at its first-order predicted state
        (:meth:`_read_start`), the nominal read state moved along its
        tangent by the lane's own mismatch.  A converged lane is accepted
        only at a stable root clear of the read-upset fold (loop gain at
        most 0.9, ``_READ_FOLD_MARGIN``) whose low node sits below its high
        node: the stored state, not the metastable or the flipped one, nor
        a ghost the residual tolerance cannot tell from a root at the fold.
        A lane that fails this guard reruns the pass from the stored state
        (low node 0.05 V, high node VDD), so its result is that pass's bit
        for bit, fixed point included.  Lanes the first pass leaves
        unconverged go straight to the fixed point.  A lane the pass
        accepts returns one Newton step past where its residuals met the
        tolerance, and lands within Newton's own tolerance of the root the
        stored start reaches (DESIGN.md, "Kernels", states the bound).

        The Newton pass keeps an active lane set, as
        :func:`_solve_monotone_node` does: a lane whose residuals meet the
        tolerance is written back and leaves the pass, so later iterations
        evaluate only the lanes still running (:meth:`_read_newton`; see
        :meth:`_read_state_residual` for the two evaluation forms).
        """
        delta_vth = dict(delta_vth or {})
        batch_shape = np.broadcast_shapes(*(np.shape(d) for d in delta_vth.values())) \
            if delta_vth else ()
        # Flatten the batch so lane compaction below stays simple.
        n_batch = int(np.prod(batch_shape)) if batch_shape else 1
        d_flat = {
            name: np.reshape(
                np.broadcast_to(
                    np.asarray(delta_vth.get(name, 0.0), dtype=np.float64), batch_shape
                ),
                (n_batch,),
            )
            for name in DEVICE_NAMES
        }
        lane_terms, residuals = self._read_state_residual(d_flat, n_batch)

        # Phase 1: a short Newton pass settles the vast majority.  Lanes
        # that start at their predicted state run it guarded; the rest (the
        # lanes the guard rejects, and any whose prediction is the stored
        # state itself) run it from the stored state, unguarded.
        start_q, start_qb = self._read_start(d_flat, stored_zero_at_q)
        home_q, home_qb = self._stored_start(d_flat, stored_zero_at_q)
        predicted = (start_q != home_q) | (start_qb != home_qb)
        out_q = np.empty((n_batch,), dtype=np.float64)
        out_qb = np.empty((n_batch,), dtype=np.float64)
        left, n_rejected = [np.empty((0,), dtype=np.intp)], 0
        for guard, start in ((stored_zero_at_q, (start_q, start_qb)),
                             (None, (home_q, home_qb))):
            lanes = np.flatnonzero(predicted if guard is not None else ~predicted)
            if not int(lanes.shape[0]):
                continue
            # A pass over the whole batch indexes by a slice: no copies.
            sub = slice(None) if int(lanes.shape[0]) == n_batch else lanes
            v_q, v_qb, unconverged, rejected = self._read_newton(
                residuals, lane_terms[:, sub], start[0][sub], start[1][sub],
                guard=guard,
            )
            out_q[sub], out_qb[sub] = v_q, v_qb
            left.append(lanes[unconverged])
            n_rejected += int(rejected.shape[0])
            predicted[lanes[rejected]] = False
        left = np.sort(np.concat(left))
        recorder = _telemetry.get_active()
        if recorder is not None:
            recorder.count("read.start_rejected", n_rejected)

        if int(left.shape[0]):
            # Phase 2: the stragglers — mostly read-upset cases where the
            # stored state no longer exists and Newton oscillates around
            # the fold — are resolved with the monotone fixed-point
            # construction, which has no critical slowing.
            d_sub = {name: val[left] for name, val in d_flat.items()}
            out_q[left], out_qb[left] = self._read_fixed_point(
                d_sub, stored_zero_at_q, int(left.shape[0])
            )

        return np.reshape(out_q, batch_shape), np.reshape(out_qb, batch_shape)

    def _stored_start(self, d_flat, stored_zero_at_q):
        """Newton start ``(v_q, v_qb)`` of every lane of ``d_flat`` at the
        stored state: the low node at 0.05 V, the high node at VDD."""
        n = int(d_flat[DEVICE_NAMES[0]].shape[0])
        low, high = 0.05, float(self.vdd)
        v_q, v_qb = (low, high) if stored_zero_at_q else (high, low)
        return (np.full((n,), v_q, dtype=np.float64),
                np.full((n,), v_qb, dtype=np.float64))

    def _read_start(self, d_flat, stored_zero_at_q):
        """Newton start ``(v_q, v_qb)`` of every lane of ``d_flat``: its
        first-order predicted read state ``v_nom + S · ΔVth``
        (:meth:`_read_prediction`), clipped to the Newton box.  The sum
        runs device by device in a fixed order, elementwise, so a lane's
        start depends only on its own mismatch."""
        v_nom, sens = self._read_prediction(stored_zero_at_q)
        shift = sens[:, :1] * d_flat[DEVICE_NAMES[0]]
        for k in range(1, len(DEVICE_NAMES)):
            shift = shift + sens[:, k:k + 1] * d_flat[DEVICE_NAMES[k]]
        v_q, v_qb = np.clip(v_nom[:, None] + shift, -0.2, self.vdd + 0.2)
        return v_q, v_qb

    def _read_prediction(self, stored_zero_at_q):
        """``(v_nom, S)`` of the first-order read-state prediction.

        ``v_nom`` is the nominal cell's read state ``(v_q, v_qb)``, solved
        by :meth:`_read_newton` from the stored state; ``S = -J^-1 df/dΔVth``
        (``(2, 6)``, columns in ``DEVICE_NAMES`` order) is its sensitivity
        to each device's mismatch, with ``J`` the Jacobian at ``v_nom`` and
        ``df/dΔVth`` central differences of the residuals there.  If the
        nominal solve does not settle, the prediction is the stored state
        with ``S = 0``.  Computed once per process for each cell design and
        stored state, in ``_READ_PREDICTIONS``, never on the cell.
        """
        key = (tuple(self.devices[name].params for name in DEVICE_NAMES),
               float(self.vdd), bool(stored_zero_at_q))
        cached = _READ_PREDICTIONS.get(key)
        if cached is not None:
            return cached
        nominal = {name: np.zeros(1) for name in DEVICE_NAMES}
        stored = self._stored_start(nominal, stored_zero_at_q)
        lane_terms, residuals = self._read_state_residual(nominal, 1)
        v_q, v_qb, left, _ = self._read_newton(residuals, lane_terms, *stored)
        if int(left.shape[0]):
            v_nom = np.concat(stored)
            sens = np.zeros((2, len(DEVICE_NAMES)))
        else:
            v_nom = np.concat([v_q, v_qb])
            # Lanes 2k and 2k + 1 raise and lower device k's threshold by
            # h; the last lane is the nominal cell, for the Jacobian.
            h = _READ_SENSITIVITY_STEP
            n = 2 * len(DEVICE_NAMES) + 1
            shifted = {name: np.zeros(n) for name in DEVICE_NAMES}
            for k, name in enumerate(DEVICE_NAMES):
                shifted[name][2 * k:2 * k + 2] = (h, -h)
            terms, shifted_residuals = self._read_state_residual(shifted, n)
            fq, fqb, j11, j12, j21, j22 = shifted_residuals(
                np.full(n, v_nom[0]), np.full(n, v_nom[1]), terms
            )
            dfd = np.stack([f[0:-1:2] - f[1:-1:2] for f in (fq, fqb)]) / (2.0 * h)
            jac = np.array([[j11[-1], j12[-1]], [j21[-1], j22[-1]]])
            sens = -np.linalg.solve(jac, dfd)
        _READ_PREDICTIONS[key] = (v_nom, sens)
        return v_nom, sens

    def _read_newton(self, residuals, lane_terms, vq, vqb, guard=None):
        """The damped 2-D Newton pass of the read state from ``(vq, vqb)``.

        ``residuals`` and ``lane_terms`` come from
        :meth:`_read_state_residual`, one column of ``lane_terms`` per lane
        of ``vq``.  Returns ``(v_q, v_qb, left, rejected)``: the converged
        states, the indices of the lanes left unconverged after
        ``_READ_NEWTON_ITERATIONS`` iterations, ``_READ_PREDICTED_ITERATIONS``
        guarded (their ``v_q``/``v_qb`` entries are unset), and those of the
        converged lanes the guard rejects.  With
        ``guard`` set to ``stored_zero_at_q``, a lane is rejected unless it
        converged at a stable root clear of the read-upset fold (a Jacobian
        determinant of at least ``_READ_FOLD_MARGIN * j11 * j22``: loop gain
        at most 0.9) with its low node below its high node; with ``None``
        none is.

        A lane whose residuals meet ``_READ_TOL`` leaves the pass,
        compacting every per-lane array once, so later iterations evaluate
        only the lanes still running.  Unguarded, it is written back at the
        state its residuals were just evaluated at, as the stored-start
        pass always was; guarded and accepted, at one Newton step further,
        the step those residuals already give.  That step costs no
        evaluation and puts the lane far inside the residual tolerance, so
        its read current moves from the stored start's by about the stored
        start's own error, not by the sum of two.  Lanes never interact: a
        lane's result does not depend on the others in the pass.
        """
        n = int(vq.shape[0])
        hi = self.vdd + 0.2
        step_cap = 0.1
        out_q = np.empty((n,), dtype=np.float64)
        out_qb = np.empty((n,), dtype=np.float64)
        active = np.arange(n)
        rejected = [active[:0]]
        recorder = _telemetry.get_active()
        lane_iters = 0
        iterations = (_READ_NEWTON_ITERATIONS if guard is None
                      else _READ_PREDICTED_ITERATIONS)
        for _ in range(iterations):
            if recorder is not None:
                lane_iters += int(active.shape[0])
            fq, fqb, j11, j12, j21, j22 = residuals(vq, vqb, lane_terms)
            det = j11 * j22 - j12 * j21
            converged = (np.abs(fq) < _READ_TOL) & (np.abs(fqb) < _READ_TOL)
            if bool(np.any(converged)):
                done_q, done_qb = vq[converged], vqb[converged]
                if guard is not None:
                    low, high = (vq, vqb) if guard else (vqb, vq)
                    stored = (det >= _READ_FOLD_MARGIN * (j11 * j22)) & (low < high)
                    rejected.append(active[converged & ~stored])
                    # An accepted lane takes the Newton step its residuals
                    # already ask for: no further evaluation, and its read
                    # current lands well inside the stored start's error.
                    c = converged
                    inv = 1.0 / np.where(stored[c], det[c], np.inf)
                    done_q = done_q - (j22[c] * fq[c] - j12[c] * fqb[c]) * inv
                    done_qb = done_qb - (-j21[c] * fq[c] + j11[c] * fqb[c]) * inv
                out_q[active[converged]] = done_q
                out_qb[active[converged]] = done_qb
                keep = ~converged
                active = active[keep]
                if not int(active.shape[0]):
                    break
                vq, vqb, fq, fqb, j11, j12, j21, j22, det = (
                    a[keep] for a in (vq, vqb, fq, fqb, j11, j12, j21, j22, det)
                )
                lane_terms = lane_terms[:, keep]
            safe = np.abs(det) > 1e-30
            inv_det = np.where(safe, 1.0 / np.where(safe, det, 1.0), 0.0)
            dvq = np.clip(-(j22 * fq - j12 * fqb) * inv_det, -step_cap, step_cap)
            dvqb = np.clip(-(-j21 * fq + j11 * fqb) * inv_det, -step_cap, step_cap)
            vq = np.clip(vq + dvq, -0.2, hi)
            vqb = np.clip(vqb + dvqb, -0.2, hi)
        if recorder is not None:
            recorder.count("read.newton_lanes", n)
            recorder.count("read.newton_lane_iters", lane_iters)
        return out_q, out_qb, active, np.concat(rejected)

    def _read_state_residual(self, d_flat, n_lanes):
        """Residual factory of the read-state Newton pass.

        Returns ``(lane_terms, residuals)``.  ``lane_terms`` holds the
        per-lane inputs of ``n_lanes`` lanes, one row each, and
        ``residuals(vq, vqb, lane_terms)`` returns the storage nodes' KCL
        residuals ``(f_q, f_qb)`` and their Jacobian ``(j11, j12, j21,
        j22)`` for the lanes those columns describe — so the Newton pass
        evaluates a subset of lanes by compacting ``lane_terms`` along axis
        1.

        Below ``_READ_STACKED_MAX_LANES`` lanes the six devices run in one
        stacked EKV call; above it each runs on its own with its fixed
        terminals as scalars.  In the read configuration the access
        devices hold their gate, drain and bulk, so for the per-device form
        their pinch-off voltage and drain interpolation are computed once
        here and an iteration evaluates only the moving source
        (:func:`~repro.devices.mosfet.ekv_source_moving`).  Both forms
        perform the elementwise operations of the full EKV evaluation in
        the same order, so every lane is bit-identical whichever form
        evaluates it, and a pass that starts per-device switches to the
        stacked call once its active set drops below the crossover.
        """
        vdd = self.vdd
        order = tuple(_READ_TERMINALS)
        # Rows: the six mismatches in ``order``, then, for the per-device
        # form, each access device's pinch-off voltage and drain F.
        rows = [d_flat[name] for name in order]
        access = []
        if n_lanes >= _READ_STACKED_MAX_LANES:
            for name in ("ax_l", "ax_r"):
                p = self.devices[name].params
                polarity = float(p.polarity)
                vp = ekv_pinch_off(vdd, 0.0, polarity, p.vth, p.n, d_flat[name])
                drain_n, f_drain, _ = ekv_terminal(vdd, 0.0, polarity, vp)
                rows += [vp, f_drain]
                access.append(
                    (ekv_specific_current(p.beta, p.n), p.lam, polarity, drain_n)
                )
        lane_terms = np.stack(rows)

        # Terminal voltages ``(terminal, device, lane)`` of the stacked call:
        # the rails are fixed, the storage-node rows are written per call,
        # and the array is rebuilt only when the lane count changes.
        nodes = np.asarray([_READ_TERMINALS[name] for name in order]).T
        rails = np.where(nodes == "vdd", vdd, 0.0)[:, :, None]
        q_at, qb_at = np.nonzero(nodes == "q"), np.nonzero(nodes == "qb")
        columns = _stacked_parameters([self.devices[name] for name in order])
        bias = rails[:, :, :0]

        def stacked(vq, vqb, terms):
            nonlocal bias
            if bias.shape[2] != vq.shape[0]:
                bias = np.repeat(rails, int(vq.shape[0]), axis=2)
            bias[q_at] = vq
            bias[qb_at] = vqb
            i, dg, dd, ds = ekv_current_and_derivs(*bias, *columns,
                                                   delta_vth=terms[:6])
            # Rows follow _READ_TERMINALS: pd_l, pu_l, ax_l, pd_r, pu_r, ax_r.
            return (i[0] + i[1] - i[2], i[3] + i[4] - i[5],
                    dd[0] + dd[1] - ds[2], dg[0] + dg[1],
                    dg[3] + dg[4], dd[3] + dd[4] - ds[5])

        def side(suffix, v_own, v_other, d_pd, d_pu, vp_ax, f_ax, ax):
            """KCL residual at one storage node, its derivative in that
            node's voltage and in the other node's."""
            i_pd, dg_pd, dd_pd, _ = self.devices["pd" + suffix].current_and_derivs(
                v_other, v_own, 0.0, 0.0, d_pd)
            i_pu, dg_pu, dd_pu, _ = self.devices["pu" + suffix].current_and_derivs(
                v_other, v_own, vdd, vdd, d_pu)
            i_spec, lam, polarity, drain_n = ax
            i_ax, ds_ax = ekv_source_moving(
                i_spec, lam, polarity, (drain_n, f_ax),
                ekv_terminal(v_own, 0.0, polarity, vp_ax),
            )
            return i_pd + i_pu - i_ax, dd_pd + dd_pu - ds_ax, dg_pd + dg_pu

        def residuals(vq, vqb, terms):
            if int(vq.shape[0]) < _READ_STACKED_MAX_LANES:
                return stacked(vq, vqb, terms)
            d_pd_l, d_pu_l, _, d_pd_r, d_pu_r, _, vp_l, f_l, vp_r, f_r = terms
            fq, j11, j12 = side("_l", vq, vqb, d_pd_l, d_pu_l, vp_l, f_l, access[0])
            fqb, j22, j21 = side("_r", vqb, vq, d_pd_r, d_pu_r, vp_r, f_r, access[1])
            return fq, fqb, j11, j12, j21, j22

        return lane_terms, residuals

    def _read_fixed_point(self, delta, stored_zero_at_q, n_batch):
        """Read state via the monotone loop map, for the Newton stragglers.

        The read-configuration DC states are the fixed points of
        ``phi(v) = h_near(h_far(v))`` — the composition of the two
        half-cell responses — which is *increasing* (both responses are
        strictly decreasing).  By monotone-map theory, the state reachable
        from the stored value (low node near 0) is the **least** fixed
        point, i.e. the first sign change of ``psi(v) = phi(v) - v`` going
        up from the bottom of the range.  A ``_READ_SCAN_POINTS``-point
        grid scan brackets the first sign change it sees and bisection
        refines it: cost is independent of how close the cell sits to the
        read-upset fold, where Newton and relaxation methods slow
        critically.

        The scan takes psi's sign at each grid point ``v`` without solving
        the near node.  It solves the far response ``u = h_far(v)`` once per
        distinct row of far-side mismatches (lanes grouped by the rows'
        bytes, so a group's lanes share every input bit and each gets the
        curve it would get alone), except for rows without mismatch, which
        read it from :meth:`_nominal_far_response`; so does the final
        loop-map evaluation of a lane without far-side mismatch that never
        bisected, whose bracket is still its scan cell and whose midpoint
        is that cell's.  Then it evaluates the near node's KCL
        residual ``f`` at voltage ``v`` with input ``u``.  ``f`` strictly
        increases in the node voltage and is zero at ``h_near(u)``, so
        psi(v) < 0 exactly where ``f > 0``.  A converged near-node solve
        stops at a root whose residual is under ``_MONOTONE_TOL``; where
        ``|f| >= _READ_SCAN_BAND``, twice that, ``v`` therefore sits on the
        same side of that root as of the true one, and the sign is the
        decision the solve would give.  Points inside the band are
        Newton-solved as before (``read.scan_newton_points`` counts them),
        so the scan is the old one bit for bit wherever the old near solve
        converged.

        The scan is not basin-correct on its own.  Where the stored and
        the metastable crossing fall inside one 43.75 mV scan cell, psi is
        positive at both ends of that cell, the scan misses both, and the
        flipped state is returned: a read-current lane at whitened
        ``(2.9515, -2.8867)`` has its stored state (48.3 uA, a pass) near
        0.473 V and its metastable one near 0.487 V, and gets the flipped
        state (4e-18 A, a fail) here.  Such a lane keeps a stable stored
        state, which the Newton pass of :meth:`solve_read_state` converges
        to, so it never reaches this method there; a test on a grid across
        the read-upset fold checks that every lane routed here lands in the
        least fixed point's basin as a fine scan sees it.

        A lane bisects until the low node's access current differs by at
        most ``_READ_CURRENT_TOL`` between its bracket's ends, or for
        ``_READ_BISECT_STEPS`` steps.  That current falls strictly as the
        low node rises, so the bracket bounds it at the fixed point; the
        returned state, ``phi`` of the bracket midpoint, stays in the
        bracket too (``phi`` is increasing, ``phi(lo) >= lo`` and
        ``phi(hi) < hi``), so its read current is within the tolerance of
        the fixed point's.  The steps run in rounds over the lanes still
        bisecting, each one batched loop-map call over a bracket tree of
        up to ``_bisection_depth(lanes)`` levels (see the module
        performance note), and the stop is checked after every step of the
        tree walk: each lane's result is the sequential bisection's,
        stopped at its first bracket within the tolerance, bit for bit,
        whatever the rest of the batch.

        ``stored_zero_at_q`` selects which storage node is the low one;
        ``v`` always parametrises the *low* node.
        """
        vdd = self.vdd
        if stored_zero_at_q:
            near, far, low, high = "left", "right", "_l", "_r"
        else:
            near, far, low, high = "right", "left", "_r", "_l"
        access = self.devices["ax" + low]
        d_access = delta.get("ax" + low, np.zeros(n_batch))
        recorder = _telemetry.get_active()

        def response(side, v_in, subset=slice(None)):
            """The ``side`` half-cell's node voltage at input ``v_in`` for
            the batch lanes ``subset``."""
            shape = np.shape(v_in)
            d = {name: val[subset] for name, val in delta.items()}
            res = self._half_cell_residual(side, v_in, vdd, vdd, d, shape)
            return _solve_monotone_node(res, -0.2, vdd + 0.2, shape)

        def access_current(v_low, subset=slice(None)):
            """The low node's access current (the read current) at ``v_low``."""
            return access.current(vdd, vdd, v_low, 0.0, d_access[subset])

        grid = np.linspace(-0.1, vdd + 0.1, _READ_SCAN_POINTS)
        # The far response on the grid depends only on the far side's
        # mismatch: one solve per distinct row of it, rows told apart by
        # their bytes, and none for rows without mismatch, whose response
        # the memo holds.
        far_names = [role + high for role in ("pd", "pu", "ax")]
        zeros = np.zeros(n_batch)
        far_rows = np.stack([delta.get(name, zeros) for name in far_names], axis=1)
        _, first, group = np.unique(
            far_rows.view(np.dtype((np.void, far_rows.strides[0])))[:, 0],
            return_index=True, return_inverse=True,
        )
        nominal = ~np.any(far_rows[first], axis=1)
        v_far = np.empty((_READ_SCAN_POINTS, int(first.shape[0])), dtype=np.float64)
        if nominal.any():
            memo_points, memo_mids = self._nominal_far_response(far, grid)
            v_far[:, nominal] = memo_points[:, None]
        solved = first[~nominal]
        if solved.shape[0]:
            shape = (_READ_SCAN_POINTS, int(solved.shape[0]))
            far_res = self._half_cell_residual(
                far, grid[:, None], vdd, vdd,
                {name: far_rows[solved, k] for k, name in enumerate(far_names)},
                shape,
            )
            v_far[:, ~nominal] = _solve_monotone_node(far_res, -0.2, vdd + 0.2, shape)
        nominal, v_far = nominal[group], v_far[:, group]
        # psi(v) = h_near(v_far) - v is negative exactly where the near
        # node's residual, strictly increasing in its voltage, is positive
        # at v.  Points inside the band are Newton-solved.
        near_res = self._half_cell_residual(near, v_far, vdd, vdd, delta,
                                            v_far.shape)
        v_scan = np.repeat(grid, n_batch)
        f, _ = near_res(v_scan)
        decided = np.abs(f) >= _READ_SCAN_BAND
        negative = decided & (f > 0.0)
        points = np.flatnonzero(~decided)
        if points.shape[0]:
            v_near = _solve_monotone_node(
                lambda v, idx: near_res(v, points[idx]), -0.2, vdd + 0.2,
                points.shape,
            )
            negative[points] = v_near < v_scan[points]
        # First + -> - transition: psi starts positive (phi maps the range
        # into itself) and ends negative.
        negative = np.reshape(negative, (_READ_SCAN_POINTS, n_batch))
        first_neg = np.argmax(negative.astype(np.int64), axis=0)
        first_neg = np.clip(first_neg, 1, _READ_SCAN_POINTS - 1)
        lo = grid[first_neg - 1]
        hi = grid[first_neg]
        i_lo, i_hi = access_current(np.stack([lo, hi]))
        # Bisection in rounds of ``depth`` steps over the lanes still
        # bisecting: each round evaluates phi and the read current at every
        # midpoint the next ``depth`` steps can visit in one batched call,
        # then takes the sequential decisions on them.
        bisecting = ~(i_lo - i_hi <= _READ_CURRENT_TOL)
        active = np.flatnonzero(bisecting)
        taken = steps = 0
        while active.shape[0] and taken < _READ_BISECT_STEPS:
            n_active = int(active.shape[0])
            left = _READ_BISECT_STEPS - taken
            rounds = -(-left // _bisection_depth(n_active))
            depth = -(-left // rounds)
            taken += depth
            a_lo, a_hi, a_ilo, a_ihi = lo[active], hi[active], i_lo[active], i_hi[active]
            # Level-order tree of brackets: node j's children are 2j (lower
            # half) and 2j + 1 (upper half), each midpoint formed from its
            # own bracket exactly as the sequential step forms it.
            level_lo, level_hi = a_lo[None], a_hi[None]
            mids = []
            for level in range(depth):
                mid = 0.5 * (level_lo + level_hi)
                mids.append(mid)
                if level + 1 < depth:
                    level_lo = np.reshape(np.stack([level_lo, mid], axis=1), (-1, n_active))
                    level_hi = np.reshape(np.stack([mid, level_hi], axis=1), (-1, n_active))
            mids = np.concat(mids)
            phi_mid = response(near, response(far, mids, active), active)
            above = phi_mid >= mids
            i_mid = access_current(mids, active)
            lanes = np.arange(n_active)
            node = np.zeros(n_active, dtype=np.intp)
            running = np.ones(n_active, dtype=np.bool)
            for level in range(depth):
                row = node + ((1 << level) - 1)
                mid, up, i_m = mids[row, lanes], above[row, lanes], i_mid[row, lanes]
                raise_lo, lower_hi = running & up, running & ~up
                a_lo = np.where(raise_lo, mid, a_lo)
                a_ilo = np.where(raise_lo, i_m, a_ilo)
                a_hi = np.where(lower_hi, mid, a_hi)
                a_ihi = np.where(lower_hi, i_m, a_ihi)
                if recorder is not None:
                    steps += int(np.count_nonzero(running))
                # A lane whose bracket now bounds the read current freezes.
                running &= ~(a_ilo - a_ihi <= _READ_CURRENT_TOL)
                node = 2 * node + up
            lo[active], hi[active], i_lo[active], i_hi[active] = a_lo, a_hi, a_ilo, a_ihi
            active = active[running]
        # One more loop-map evaluation makes (v_low, v_far) an exact
        # consistent pair at the fixed point.  A lane that never bisected
        # evaluates it at its scan cell's midpoint, where the memo holds
        # the far response of lanes without far-side mismatch.
        v_mid = 0.5 * (lo + hi)
        memo = nominal & ~bisecting
        v_far = np.empty((n_batch,), dtype=np.float64)
        if memo.any():
            v_far[memo] = memo_mids[first_neg[memo] - 1]
        rest = np.flatnonzero(~memo)
        if rest.shape[0]:
            v_far[rest] = response(far, v_mid[rest], rest)
        v_low = response(near, v_far)
        if recorder is not None:
            recorder.count("read.fixed_point_lanes", n_batch)
            recorder.count("read.scan_newton_points", int(points.shape[0]))
            recorder.count("read.bisect_steps", steps)
        if stored_zero_at_q:
            return v_low, v_far
        return v_far, v_low

    def _nominal_far_response(self, far, grid):
        """``(at_points, at_midpoints)``: the ``far`` half-cell's response
        without mismatch at the scan points ``grid`` and at the midpoints
        of its cells, as :meth:`_read_fixed_point` forms them.

        Solved once per process for each cell design and far side, in
        ``_FAR_RESPONSES``, never on the cell.  A far lane's solve depends
        only on its input voltage and far-side mismatch, so these are the
        bits any lane without far-side mismatch gets solved in a batch.
        The fill counts its lanes as ``read.far_memo_lanes``, not in
        ``newton.*``: which process fills it first is up to scheduling.
        """
        key = (tuple(self.devices[name].params for name in DEVICE_NAMES),
               float(self.vdd), far)
        cached = _FAR_RESPONSES.get(key)
        if cached is None:
            vdd = self.vdd
            v_in = np.concat([grid, 0.5 * (grid[:-1] + grid[1:])])
            residual = self._half_cell_residual(far, v_in, vdd, vdd, {}, v_in.shape)
            v = _solve_monotone_node(residual, -0.2, vdd + 0.2, v_in.shape,
                                     counted=False)
            cached = _FAR_RESPONSES[key] = (v[:grid.shape[0]], v[grid.shape[0]:])
            recorder = _telemetry.get_active()
            if recorder is not None:
                recorder.count("read.far_memo_lanes", int(v_in.shape[0]))
        return cached

    # ------------------------------------------------------ write timing
    def write_flip_time(
        self,
        delta_vth: Optional[Mapping[str, np.ndarray]] = None,
        node_capacitance: float = 5e-15,
        t_window: float = 150e-12,
        dt: float = 1e-12,
    ) -> np.ndarray:
        """Time (s) for a write-0 to pull ``q`` through VDD/2.

        The cell starts storing 1 at ``q``; at t = 0 the wordline is
        asserted with BL = 0 and BLB = VDD.  Backward-Euler integration of
        the two storage nodes (lumped ``node_capacitance`` each), with
        per-sample crossing detection; a cell that never flips inside
        ``t_window`` reports the full window, keeping the metric finite and
        monotone through the write-failure boundary.

        This is the specialised fast path behind
        :class:`repro.sram.dynamic.WriteTimeMetric`; it integrates only
        until every sample has either flipped or settled, which matters for
        the sequential single-sample evaluations of a Gibbs chain.
        """
        if node_capacitance <= 0 or dt <= 0 or t_window <= 0:
            raise ValueError("capacitance, dt and window must be positive")
        delta_vth = dict(delta_vth or {})
        batch_shape = np.broadcast_shapes(*(np.shape(v) for v in delta_vth.values())) \
            if delta_vth else ()
        n_batch = int(np.prod(batch_shape)) if batch_shape else 1
        d = {
            name: np.reshape(
                np.broadcast_to(
                    np.asarray(delta_vth.get(name, 0.0), dtype=np.float64), batch_shape
                ),
                (n_batch,),
            )
            for name in DEVICE_NAMES
        }
        vdd = self.vdd
        dev = self.devices

        def residuals(vq, vqb):
            # Left half in write configuration: access pulls q toward BL=0.
            i_pd, g_pd, dd_pd, _ = dev["pd_l"].current_and_derivs(
                vqb, vq, 0.0, 0.0, d["pd_l"])
            i_pu, g_pu, dd_pu, _ = dev["pu_l"].current_and_derivs(
                vqb, vq, vdd, vdd, d["pu_l"])
            i_ax, _, dd_ax, _ = dev["ax_l"].current_and_derivs(
                vdd, vq, 0.0, 0.0, d["ax_l"])
            fq = i_pd + i_pu + i_ax
            j11 = dd_pd + dd_pu + dd_ax
            j12 = g_pd + g_pu
            # Right half sees BLB = VDD (read-like).
            i_pd2, g_pd2, dd_pd2, _ = dev["pd_r"].current_and_derivs(
                vq, vqb, 0.0, 0.0, d["pd_r"])
            i_pu2, g_pu2, dd_pu2, _ = dev["pu_r"].current_and_derivs(
                vq, vqb, vdd, vdd, d["pu_r"])
            i_ax2, _, _, ds_ax2 = dev["ax_r"].current_and_derivs(
                vdd, vdd, vqb, 0.0, d["ax_r"])
            fqb = i_pd2 + i_pu2 - i_ax2
            j22 = dd_pd2 + dd_pu2 - ds_ax2
            j21 = g_pd2 + g_pu2
            return fq, fqb, j11, j12, j21, j22

        g_cap = node_capacitance / dt
        n_steps = int(np.ceil(t_window / dt))
        half = 0.5 * vdd
        vq = np.full((n_batch,), float(vdd), dtype=np.float64)
        vqb = np.zeros((n_batch,), dtype=np.float64)
        crossing = np.full((n_batch,), float(t_window), dtype=np.float64)
        crossed = np.zeros((n_batch,), dtype=np.bool)
        for step in range(1, n_steps + 1):
            vq_prev, vqb_prev = vq, vqb
            # Backward-Euler step via a short damped Newton.
            for _ in range(12):
                fq, fqb, j11, j12, j21, j22 = residuals(vq, vqb)
                fq = fq + g_cap * (vq - vq_prev)
                fqb = fqb + g_cap * (vqb - vqb_prev)
                j11 = j11 + g_cap
                j22 = j22 + g_cap
                det = j11 * j22 - j12 * j21
                dvq = -(j22 * fq - j12 * fqb) / det
                dvqb = -(-j21 * fq + j11 * fqb) / det
                vq = np.clip(vq + dvq, -0.2, vdd + 0.2)
                vqb = np.clip(vqb + dvqb, -0.2, vdd + 0.2)
                if max(float(np.max(np.abs(dvq))), float(np.max(np.abs(dvqb)))) < 1e-10:
                    break
            # Linear-interpolated downward crossing of vdd/2 on the q node.
            just = (~crossed) & (vq_prev >= half) & (vq < half)
            if bool(np.any(just)):
                frac = (vq_prev - half) / np.maximum(vq_prev - vq, 1e-30)
                crossing = np.where(
                    just, (step - 1 + np.clip(frac, 0.0, 1.0)) * dt, crossing
                )
                crossed = crossed | just
            # Stop once every sample has flipped or truly frozen (tight
            # tolerance: a near-write-failure trajectory creeps through a
            # saddle before accelerating, and must not be cut off there).
            moved = np.maximum(np.abs(vq - vq_prev), np.abs(vqb - vqb_prev))
            if bool(np.all(crossed | (moved < 1e-8))):
                break
        return np.reshape(crossing, batch_shape)

    # ------------------------------------------------------ read current
    def read_current(
        self, delta_vth: Optional[Mapping[str, np.ndarray]] = None
    ) -> np.ndarray:
        """Drain current of the left access transistor (M3) during read.

        This is the paper's Section V-B metric: WL and both bitlines at VDD,
        cell storing 0 at ``q``; the access device discharges the bitline
        through the left pull-down.  If mismatch statically flips the cell,
        the current collapses — the mechanism behind the non-convex failure
        region of Fig. 13.
        """
        delta_vth = dict(delta_vth or {})
        vq, _ = self.solve_read_state(delta_vth, stored_zero_at_q=True)
        ax = self.devices["ax_l"]
        return ax.current(self.vdd, self.vdd, vq, 0.0, delta_vth.get("ax_l", 0.0))

    def __repr__(self) -> str:
        g = self.geometries
        return (
            f"SixTransistorCell(vdd={self.vdd} V, "
            f"pd={g['pull_down'].ratio:.1f}, ax={g['access'].ratio:.1f}, "
            f"pu={g['pull_up'].ratio:.1f})"
        )
