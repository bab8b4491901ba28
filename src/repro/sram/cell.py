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
arithmetic — sets the cost.  Five measures keep the dispatch count down:

* ``half_cell_vtc`` solves both butterfly sides in one coarse-grid plus one
  full-grid Newton loop (not two of each);
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
  deepest that fits ``_BISECT_ROUND_LANES``), then the sequential
  decisions walk the tree.  One straggler takes 4 rounds instead of 30; an
  importance-sampling shard's ~870 stragglers keep d = 1, the plain loop.

Lanes never interact and every speculative midpoint is formed from its own
bracket exactly as the sequential step forms it, so all five are
bit-identical per lane to the per-side, per-device, sequential solve;
``benchmarks/bench_backend_kernels.py`` times them against that solve, kept
as the oracle in ``tests/test_sram_cell.py``.  Only the Newton lane
counters see the difference: they count the speculative lanes too.
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


def _solve_monotone_node(residual, lo: float, hi: float, shape,
                         iterations: int = 26, tol: float = 2e-12,
                         v0=None):
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
    recorder = _telemetry.get_active()
    lane_iters = 0
    for _ in range(iterations):
        if recorder is not None:
            lane_iters += int(active.shape[0])
        f, dfdv = residual(v_act, active)
        done = np.abs(f) < tol
        if bool(np.any(done)):
            # Early lane exit: freeze converged lanes at the voltage their
            # residual was just evaluated at and drop them from the set.
            v[active[done]] = v_act[done]
            keep = ~done
            if not bool(np.any(keep)):
                active = active[:0]
                break
            active = active[keep]
            v_act, lo_act, hi_act = v_act[keep], lo_act[keep], hi_act[keep]
            f, dfdv = f[keep], dfdv[keep]
        # Tighten the bracket using the sign of the monotone residual.
        above = f > 0.0
        hi_act = np.where(above, v_act, hi_act)
        lo_act = np.where(~above, v_act, lo_act)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dfdv > 0.0, -f / dfdv, 0.0)
        candidate = v_act + step
        # Fall back to bisection wherever Newton leaves the bracket or the
        # derivative is unusable.
        inside = (candidate > lo_act) & (candidate < hi_act) & (dfdv > 0.0)
        v_act = np.where(inside, candidate, 0.5 * (lo_act + hi_act))
    if int(active.shape[0]):
        v[active] = v_act
    if recorder is not None:
        recorder.count("newton.lane_solves", n)
        recorder.count("newton.lane_iters", lane_iters)
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

#: Lane count under which the read-state Newton pass evaluates its six
#: devices in one stacked EKV call instead of six per-device calls.  On the
#: same VM a whole read-state solve was 2.4-2.9x faster stacked at 1-64
#: lanes, 1.4-1.9x from 256 to 1,024 and 1.2x at 1,280, then 0.79x at 1,536
#: and 0.65x at 4,096 lanes, where the per-device calls' scalar terminals
#: save more arithmetic than the stacked call saves dispatches.
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
        newton_iterations: int = 80,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """DC state ``(v_q, v_qb)`` during a read access (WL=BL=BLB=VDD).

        The solve starts from the stored state, so if that state still exists
        it is returned; if large mismatch has destroyed it (static read
        upset) the solver lands on the flipped state — exactly the physics
        that makes the read-current failure region of Section V-B
        non-convex.

        Strategy: batched damped 2-D Newton for the bulk of the batch, then
        the monotone least-fixed-point construction
        (:meth:`_read_fixed_point`) for any members Newton left unconverged
        — typically samples at or past the read-upset fold, where Newton
        oscillates and relaxation slows critically, but where the bracketed
        fixed-point bisection stays O(log) regardless.

        The Newton residual evaluates all six devices in one stacked EKV
        call below ``_READ_STACKED_MAX_LANES`` lanes and one call per device
        above, with the fixed terminals as scalars; both forms are
        bit-identical per lane.
        """
        delta_vth = dict(delta_vth or {})
        batch_shape = np.broadcast_shapes(*(np.shape(d) for d in delta_vth.values())) \
            if delta_vth else ()
        vdd = self.vdd
        # Flatten the batch so straggler compaction below stays simple.
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

        order = tuple(_READ_TERMINALS)
        if n_batch < _READ_STACKED_MAX_LANES:
            # Terminal voltages ``(terminal, device, lane)``; the
            # storage-node rows are rewritten on every residual evaluation.
            nodes = np.asarray([_READ_TERMINALS[name] for name in order]).T
            bias = np.empty((4, 6, n_batch), dtype=np.float64)
            bias[nodes == "vdd"] = vdd
            bias[nodes == "0"] = 0.0
            q_at, qb_at = np.nonzero(nodes == "q"), np.nonzero(nodes == "qb")
            columns = _stacked_parameters([self.devices[name] for name in order])
            deltas = np.stack([d_flat[name] for name in order])

            def evaluate(vq, vqb):
                bias[q_at] = vq
                bias[qb_at] = vqb
                return ekv_current_and_derivs(*bias, *columns, delta_vth=deltas)
        else:
            def evaluate(vq, vqb):
                at = {"q": vq, "qb": vqb, "vdd": vdd, "0": 0.0}
                return zip(*(
                    self.devices[name].current_and_derivs(
                        *(at[node] for node in _READ_TERMINALS[name]), d_flat[name]
                    )
                    for name in order
                ))

        def residuals(vq, vqb):
            i, dg, dd, ds = evaluate(vq, vqb)
            # Rows follow _READ_TERMINALS: pd_l, pu_l, ax_l, pd_r, pu_r, ax_r.
            fq = i[0] + i[1] - i[2]
            fqb = i[3] + i[4] - i[5]
            j11 = dd[0] + dd[1] - ds[2]       # dfq/dvq
            j12 = dg[0] + dg[1]               # dfq/dvqb
            j21 = dg[3] + dg[4]               # dfqb/dvq
            j22 = dd[3] + dd[4] - ds[5]       # dfqb/dvqb
            return fq, fqb, j11, j12, j21, j22

        if stored_zero_at_q:
            init_q, init_qb = 0.05, vdd
        else:
            init_q, init_qb = vdd, 0.05

        vq = np.full((n_batch,), float(init_q), dtype=np.float64)
        vqb = np.full((n_batch,), float(init_qb), dtype=np.float64)

        # Residual tolerance: device currents are ~1e-4 A and node
        # conductances ~1e-4 S, so 3e-11 A resolves node voltages to well
        # under a microvolt — far tighter than any metric needs, yet loose
        # enough that near-fold (read-upset boundary) points, where Newton
        # slows to linear convergence, still terminate quickly.
        tol = 3e-11
        step_cap = 0.1

        def newton_pass(vq, vqb, iterations):
            converged = np.zeros(vq.shape, dtype=np.bool)
            for _ in range(iterations):
                fq, fqb, j11, j12, j21, j22 = residuals(vq, vqb)
                converged = (np.abs(fq) < tol) & (np.abs(fqb) < tol)
                if bool(np.all(converged)):
                    break
                det = j11 * j22 - j12 * j21
                safe = np.abs(det) > 1e-30
                inv_det = np.where(safe, 1.0 / np.where(safe, det, 1.0), 0.0)
                dvq = np.clip(-(j22 * fq - j12 * fqb) * inv_det, -step_cap, step_cap)
                dvqb = np.clip(-(-j21 * fq + j11 * fqb) * inv_det, -step_cap, step_cap)
                vq = np.clip(vq + np.where(converged, 0.0, dvq), -0.2, vdd + 0.2)
                vqb = np.clip(vqb + np.where(converged, 0.0, dvqb), -0.2, vdd + 0.2)
            return vq, vqb, converged

        # Phase 1: a short full-batch Newton settles the vast majority.
        first_pass = min(14, newton_iterations)
        vq, vqb, converged = newton_pass(vq, vqb, first_pass)

        if not bool(np.all(converged)):
            # Phase 2: compact the stragglers — mostly read-upset cases
            # where the stored state no longer exists and Newton oscillates
            # around the fold — and resolve them with the monotone
            # fixed-point construction, which has no critical slowing.
            idx = np.nonzero(~converged)[0]
            d_sub = {name: val[idx] for name, val in d_flat.items()}
            vq_s, vqb_s = self._read_fixed_point(
                d_sub, stored_zero_at_q, int(idx.shape[0])
            )
            vq[idx] = vq_s
            vqb[idx] = vqb_s

        return np.reshape(vq, batch_shape), np.reshape(vqb, batch_shape)

    def _read_fixed_point(self, delta, stored_zero_at_q, n_batch,
                          n_grid: int = 33, bisect_iters: int = 30):
        """Basin-correct read state via the monotone loop map.

        The read-configuration DC states are the fixed points of
        ``phi(v) = h_near(h_far(v))`` — the composition of the two
        half-cell responses — which is *increasing* (both responses are
        strictly decreasing).  By monotone-map theory, the state reachable
        from the stored value (low node near 0) is the **least** fixed
        point, i.e. the first sign change of ``psi(v) = phi(v) - v`` going
        up from the bottom of the range.  A vectorised grid scan brackets
        that crossing and bisection refines it: cost is independent of how
        close the cell sits to the read-upset fold, where Newton and
        relaxation methods slow critically.

        The ``bisect_iters`` steps run in rounds of up to
        ``_bisection_depth(n_batch)`` steps, each one batched loop-map call
        over the round's bracket tree (see the module performance note);
        the result is the sequential bisection's, bit for bit.

        ``stored_zero_at_q`` selects which storage node is the low one;
        ``v`` always parametrises the *low* node.
        """
        vdd = self.vdd
        if stored_zero_at_q:
            near, far = "left", "right"
        else:
            near, far = "right", "left"

        def loop_map(v_low):
            """phi: low-node voltage -> far response -> near response."""
            shape = np.shape(v_low)
            far_res = self._half_cell_residual(far, v_low, vdd, vdd, delta, shape)
            v_far = _solve_monotone_node(far_res, -0.2, vdd + 0.2, shape)
            near_res = self._half_cell_residual(near, v_far, vdd, vdd, delta, shape)
            v_near = _solve_monotone_node(near_res, -0.2, vdd + 0.2, shape)
            return v_near, v_far

        grid = np.linspace(-0.1, vdd + 0.1, n_grid)
        grid_b = np.broadcast_to(grid[:, None], (n_grid, n_batch))
        phi, _ = loop_map(grid_b)
        psi = phi - grid_b
        # First + -> - transition: psi starts positive (phi maps the range
        # into itself) and ends negative.
        negative = psi < 0.0
        first_neg = np.argmax(negative.astype(np.int64), axis=0)
        first_neg = np.clip(first_neg, 1, n_grid - 1)
        lo = grid[first_neg - 1]
        hi = grid[first_neg]
        # Bisection in rounds of ``depth`` steps: each round evaluates phi
        # at every midpoint the next ``depth`` steps can visit in one
        # batched call, then takes the sequential decisions on them.
        lanes = np.arange(n_batch)
        rounds = -(-bisect_iters // _bisection_depth(n_batch))
        left = bisect_iters
        for r in range(rounds):
            depth = -(-left // (rounds - r))
            left -= depth
            # Level-order tree of brackets: node j's children are 2j (lower
            # half) and 2j + 1 (upper half), each midpoint formed from its
            # own bracket exactly as the sequential step forms it.
            level_lo, level_hi = lo[None], hi[None]
            mids = []
            for level in range(depth):
                mid = 0.5 * (level_lo + level_hi)
                mids.append(mid)
                if level + 1 < depth:
                    level_lo = np.reshape(np.stack([level_lo, mid], axis=1), (-1, n_batch))
                    level_hi = np.reshape(np.stack([mid, level_hi], axis=1), (-1, n_batch))
            mids = np.concat(mids)
            phi_mid, _ = loop_map(mids)
            above = phi_mid >= mids
            node = np.zeros(n_batch, dtype=np.intp)
            for level in range(depth):
                row = node + ((1 << level) - 1)
                mid, up = mids[row, lanes], above[row, lanes]
                lo = np.where(up, mid, lo)
                hi = np.where(up, hi, mid)
                node = 2 * node + up
        v_low = 0.5 * (lo + hi)
        _, v_far = loop_map(v_low)
        # Evaluate the near node once more so (v_low, v_far) is an exact
        # consistent pair at the fixed point.
        near_res = self._half_cell_residual(
            near, v_far, vdd, vdd, delta, np.shape(v_low)
        )
        v_low = _solve_monotone_node(near_res, -0.2, vdd + 0.2, np.shape(v_low))
        if stored_zero_at_q:
            return v_low, v_far
        return v_far, v_low

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
