"""SRAM performance metrics: the black-box functions the samplers explore.

Every metric maps a whitened sample matrix ``x`` of shape ``(n, M)`` to a
``(n,)`` array of performance values, evaluating all samples in vectorised
chunks.  These are the "transistor-level simulations" of the paper; the
Monte-Carlo layer counts calls through them one sample at a time.

The three metrics of Section V:

* :class:`ReadNoiseMarginMetric` — RNM of the stored-0 state during a read
  access (Seevinck largest square of the read butterfly's ``c > 0`` lobe).
  Following the paper's single-failure-mechanism convention, only one stored
  state is analysed; the symmetric cell's total read failure rate is twice
  the reported one.
* :class:`WriteNoiseMarginMetric` — write margin for writing 0 into a cell
  storing 1: minus the largest-square side of the residual retention lobe of
  the write-configuration butterfly (positive = writable).
* :class:`ReadCurrentMetric` — drain current of the left access transistor
  (M3) during read, the Section V-B access-time metric.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.circuit import warm as _warm
from repro.sram.butterfly import lobe_margins, write_margin
from repro.sram.cell import SixTransistorCell
from repro.sram.variation import VthMismatch
from repro.utils.validation import as_sample_matrix, check_finite


class SramMetric:
    """Base class: chunked vectorised evaluation over mismatch samples."""

    def __init__(
        self,
        cell: Optional[SixTransistorCell] = None,
        devices: Optional[Sequence[str]] = None,
        chunk_size: int = 4096,
    ):
        self.cell = cell or SixTransistorCell()
        self.mismatch = VthMismatch(
            self.cell, devices if devices is not None else self.default_devices()
        )
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = int(chunk_size)

    #: Subclasses override: device subset the metric varies by default.
    @staticmethod
    def default_devices() -> Sequence[str]:
        return ("pd_l", "pd_r", "ax_l", "ax_r", "pu_l", "pu_r")

    @property
    def dimension(self) -> int:
        return self.mismatch.dimension

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Metric values for every row of the ``(n, M)`` sample matrix.

        Rows must be finite: a NaN or infinite mismatch has no circuit, and
        simulating one would report a margin that reads as a real failure.
        """
        x = check_finite("sample matrix", as_sample_matrix(x, self.dimension))
        n = x.shape[0]
        # Cross-round solver warm start (repro.circuit.warm): claim the
        # per-row lane tag set by the sampler, if any, and scope each
        # chunk's slice of it around the chunk kernel so per-solve helpers
        # can seed/store without threading state through subclasses.
        carrier = _warm.get_active()
        lanes = carrier.take_lanes(n) if carrier is not None else None
        out = np.empty(n)
        for start in range(0, n, self.chunk_size):
            stop = min(start + self.chunk_size, n)
            deltas = self.mismatch.deltas(x[start:stop])
            if lanes is None:
                values = self._evaluate_chunk(deltas)
            else:
                carrier.begin_chunk(lanes[start:stop])
                try:
                    values = self._evaluate_chunk(deltas)
                finally:
                    carrier.end_chunk()
            out[start:stop] = values
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)

    def _evaluate_chunk(self, deltas) -> np.ndarray:
        raise NotImplementedError

    def _warm_vtc(self, key, bl_voltages, deltas, wl_voltage=None):
        """Both half-cell VTCs with per-lane cross-round Newton warm seeding.

        One ``half_cell_vtc`` call solves the left and right sides (bitline
        voltages ``bl_voltages``) together.  Cold path (no active carrier,
        or no lane tag for this batch) is a plain VTC solve.  Warm path
        seeds each side from the lanes' last converged VTC under that
        side's key (``key`` + ``"-left"`` / ``"-right"``) and stores the
        new solutions back.  The
        unique-solution monotone solve keeps warm results within solver
        tolerance of cold ones (see the warm-start note in DESIGN.md) —
        which is why only the VTC metrics warm-start: the bistable read
        state could be steered across basins by a seed, a beyond-tolerance
        change, so :class:`ReadCurrentMetric` deliberately stays cold.
        """
        carrier = _warm.get_active()
        keys = (key + "-left", key + "-right")
        seeds = tuple(carrier.chunk_seed(k) for k in keys) if carrier is not None else None
        vtcs = self.cell.half_cell_vtc(
            ("left", "right"), self.grid, bl_voltages, deltas,
            wl_voltage=wl_voltage, v0=seeds,
        )
        if carrier is not None:
            for key, vtc in zip(keys, vtcs):
                carrier.chunk_store(key, vtc)
        return vtcs


class ReadNoiseMarginMetric(SramMetric):
    """Read static noise margin (V) of the stored-0 state."""

    def __init__(self, cell=None, devices=None, grid_points: int = 81,
                 n_lines: int = 121, chunk_size: int = 4096):
        super().__init__(cell, devices, chunk_size)
        self.grid = np.linspace(0.0, self.cell.vdd, grid_points)
        self.n_lines = n_lines

    def _evaluate_chunk(self, deltas) -> np.ndarray:
        vdd = self.cell.vdd
        vtc_left, vtc_right = self._warm_vtc("rnm", (vdd, vdd), deltas)
        margin_pos, _ = lobe_margins(self.grid, vtc_left, vtc_right, self.n_lines)
        return margin_pos


class WriteNoiseMarginMetric(SramMetric):
    """Write margin (V) for writing 0 into a cell storing 1 (positive = writable)."""

    def __init__(self, cell=None, devices=None, grid_points: int = 81,
                 n_lines: int = 121, chunk_size: int = 4096):
        super().__init__(cell, devices, chunk_size)
        self.grid = np.linspace(0.0, self.cell.vdd, grid_points)
        self.n_lines = n_lines

    def _evaluate_chunk(self, deltas) -> np.ndarray:
        vdd = self.cell.vdd
        # Left half is write-driven (BL = 0); right half sees BLB = VDD.
        vtc_left, vtc_right = self._warm_vtc("wnm", (0.0, vdd), deltas)
        return write_margin(self.grid, vtc_left, vtc_right)


class HoldNoiseMarginMetric(SramMetric):
    """Hold (standby) static noise margin (V) of the stored-0 state.

    Same Seevinck construction as the read margin but with the wordline
    low: the access transistors are off and the cross-coupled pair keeps
    its full butterfly.  Hold SNM upper-bounds the read SNM (the read
    access robs margin), which the tests assert — a physics invariant tying
    the two metrics together.
    """

    def __init__(self, cell=None, devices=None, grid_points: int = 81,
                 n_lines: int = 121, chunk_size: int = 4096):
        super().__init__(cell, devices, chunk_size)
        self.grid = np.linspace(0.0, self.cell.vdd, grid_points)
        self.n_lines = n_lines

    def _evaluate_chunk(self, deltas) -> np.ndarray:
        vdd = self.cell.vdd
        vtc_left, vtc_right = self._warm_vtc("hold", (vdd, vdd), deltas, wl_voltage=0.0)
        margin_pos, _ = lobe_margins(self.grid, vtc_left, vtc_right, self.n_lines)
        return margin_pos


class ReadCurrentMetric(SramMetric):
    """Read current (A): drain current of M3 during a read access."""

    @staticmethod
    def default_devices() -> Sequence[str]:
        # Section V-B: "the read current variation is dominated by the local
        # Vth mismatches of these two transistors" (M1 and M3).
        return ("pd_l", "ax_l")

    def _evaluate_chunk(self, deltas) -> np.ndarray:
        return self.cell.read_current(deltas)
