"""Dynamic (transient) SRAM metrics — an extension beyond the paper's DC set.

The paper evaluates static margins and a DC read current; real sign-off
also checks *timing*: how long a write takes to flip the cell within the
wordline pulse.  :class:`WriteTimeMetric` measures that, giving the library
a dynamic failure mechanism with the same black-box interface as the static
metrics — usable by every sampler, including the Gibbs flows.

The metric delegates to :meth:`repro.sram.cell.SixTransistorCell.
write_flip_time`, a specialised two-node backward-Euler integrator with
per-sample early termination; ``tests/test_circuit_transient.py``
cross-validates it against the general netlist transient engine.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sram.metrics import SramMetric


class WriteTimeMetric(SramMetric):
    """Time (s) for a write-0 to flip the cell, from wordline assertion.

    The cell starts storing 1 at ``q``; at t = 0 the wordline rises with
    BL = 0 and BLB = VDD.  The metric is the time at which ``v_q`` falls
    through VDD/2.  A cell that never flips inside the simulation window
    (a hard write failure) reports the full window length, keeping the
    metric finite and monotone through the failure boundary.

    Parameters
    ----------
    node_capacitance:
        Lumped storage-node capacitance (F); with ~5 fF and ~100 uA drive
        the natural flip scale is tens of picoseconds.
    t_window:
        Simulation window (s).
    dt:
        Backward-Euler step (s).
    """

    def __init__(
        self,
        cell=None,
        devices: Optional[Sequence[str]] = None,
        chunk_size: int = 2048,
        node_capacitance: float = 5.0e-15,
        t_window: float = 150e-12,
        dt: float = 1e-12,
    ):
        super().__init__(cell, devices, chunk_size)
        if node_capacitance <= 0:
            raise ValueError("node_capacitance must be positive")
        self.node_capacitance = float(node_capacitance)
        self.t_window = float(t_window)
        self.dt = float(dt)

    @staticmethod
    def default_devices() -> Sequence[str]:
        return ("pd_l", "pd_r", "ax_l", "ax_r", "pu_l", "pu_r")

    def _evaluate_chunk(self, deltas) -> np.ndarray:
        return self.cell.write_flip_time(
            deltas,
            node_capacitance=self.node_capacitance,
            t_window=self.t_window,
            dt=self.dt,
        )
