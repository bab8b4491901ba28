"""Cross-round Newton warm-start carrier for the Gibbs inner loop.

Successive interval-search rounds evaluate the *same* chain's 1-D slice at
nearby coordinate values, and every one of those evaluations re-solves the
cell's DC operating point from the rail midpoint.  A
:class:`SolverStateCarrier` remembers each chain's last converged node
voltages so the next round can seed Newton from them instead.

The carrier is keyed twice:

* a **lane id** per batch row — the Gibbs samplers tag every indicator
  batch with the chain index behind each row (:func:`set_lanes`), and the
  metric layer claims the tags (:meth:`SolverStateCarrier.take_lanes`)
  before evaluating.  The interval search
  (:func:`repro.gibbs.bounds.batched_failure_interval`) also tags each
  row with the side of the bracket it probes (:func:`set_sides`), so a
  chain keeps one lane per side: a left probe is seeded from that
  chain's previous left probe, a right probe from its previous right
  probe, never across the chain's point;
* a **solve key** per physical sub-problem — e.g. the left half-cell VTC
  vs the right one — so states from different circuits never cross.

Correctness contract (mirrors the VTC grid-continuation warm start, see
DESIGN.md): a warm seed only replaces the Newton *initial guess*; the
full solve bracket and convergence tolerance are retained, so a poor seed
costs iterations, never correctness.  Warm-started outputs agree with cold
ones to solver tolerance but are not bitwise identical.  Every Gibbs
sampler run installs a carrier, and a chain's seeds depend only on that
chain's own trajectory, so warm runs stay bit-identical across worker
counts, group sizes and backends.

Activation is thread-local (one carrier per lockstep run, as with the
telemetry recorder), so the thread fan-out backend keeps per-shard state
isolated without locking.  Cross-process shards each build their own
carrier inside the worker.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional

import numpy as np

_local = threading.local()


def get_active() -> Optional["SolverStateCarrier"]:
    """The carrier installed on this thread, or ``None`` (warm start off)."""
    return getattr(_local, "carrier", None)


@contextmanager
def use_carrier(carrier: Optional["SolverStateCarrier"]):
    """Install ``carrier`` as this thread's active carrier for the block."""
    previous = getattr(_local, "carrier", None)
    _local.carrier = carrier
    try:
        yield carrier
    finally:
        _local.carrier = previous


def set_lanes(lane_ids, rows=None) -> None:
    """Tag the next metric evaluation's rows with per-row lane ids.

    ``lane_ids`` names the chain of every row the sampler's indicator was
    handed; ``rows`` (a mask or index) selects those that reach the
    metric, when the indicator filters some out.  No-op when no carrier is
    active.  Samplers tag every batch without caring whether the metric
    underneath consumes solver state.
    """
    carrier = get_active()
    if carrier is not None:
        carrier.set_lanes(lane_ids, rows)


def set_sides(sides) -> None:
    """Tag the rows of the next indicator call with their search side.

    ``sides`` holds 0 (left bracket) or 1 (right bracket) per row, aligned
    with the rows handed to the indicator, or is ``None`` to clear the
    tag.  No-op when no carrier is active.
    """
    carrier = get_active()
    if carrier is not None:
        carrier.set_sides(sides)


class SolverStateCarrier:
    """Per-lane converged solver states, handed across solve rounds.

    One instance lives for one sampler run.  The lane tag set by
    :meth:`set_lanes` is *one-shot*: :meth:`take_lanes` always clears it,
    and returns it only when its length matches the evaluated batch — a
    stale tag from a call that never reached the metric can therefore
    never mis-seed an unrelated batch.

    While a side tag (:meth:`set_sides`) covers the tagged rows, a row of
    chain ``c`` on side ``s`` gets the lane id ``-1 - (2 c + s)``: the
    search sides keep lanes of their own, disjoint from the plain chain
    lanes ``c >= 0`` of untagged evaluations.
    """

    def __init__(self) -> None:
        self._store: Dict[object, Dict[int, np.ndarray]] = {}
        self._lanes: Optional[np.ndarray] = None
        self._sides: Optional[np.ndarray] = None
        self._chunk_lanes: Optional[np.ndarray] = None

    # ------------------------------------------------------------ lane tags
    def set_sides(self, sides) -> None:
        self._sides = None if sides is None else np.asarray(sides, dtype=np.intp)

    def set_lanes(self, lane_ids, rows=None) -> None:
        lanes = np.asarray(lane_ids, dtype=np.intp).reshape(-1)
        if self._sides is not None and self._sides.size == lanes.size:
            lanes = -1 - (2 * lanes + self._sides)
        self._lanes = lanes if rows is None else lanes[rows]

    def take_lanes(self, n_rows: int) -> Optional[np.ndarray]:
        """Claim the pending lane tag for an ``n_rows``-row evaluation."""
        lanes, self._lanes = self._lanes, None
        if lanes is None or lanes.size != int(n_rows):
            return None
        return lanes

    # ----------------------------------------------------------- chunk scope
    # The metric layer evaluates in chunks; it binds the chunk's lane slice
    # here so per-solve helpers (seed/store) need no extra plumbing through
    # subclass signatures.
    def begin_chunk(self, lanes: np.ndarray) -> None:
        self._chunk_lanes = lanes

    def end_chunk(self) -> None:
        self._chunk_lanes = None

    def chunk_seed(self, key) -> Optional[np.ndarray]:
        if self._chunk_lanes is None:
            return None
        return self.seed(key, self._chunk_lanes)

    def chunk_store(self, key, values) -> None:
        if self._chunk_lanes is None:
            return
        values = np.asarray(values)
        if values.ndim == 0 or values.shape[-1] != self._chunk_lanes.size:
            return
        self.store(key, self._chunk_lanes, values)

    # ---------------------------------------------------------------- store
    def seed(self, key, lanes) -> Optional[np.ndarray]:
        """Stacked ``(..., len(lanes))`` states, or ``None`` if any lane is new.

        All-or-nothing: mixing stored columns with a synthetic default for
        missing lanes would hand the solver a seed of wildly varying
        quality inside one batch; the callers' cold path is better.
        """
        slot = self._store.get(key)
        if slot is None:
            return None
        try:
            columns = [slot[int(lane)] for lane in lanes]
        except KeyError:
            return None
        return np.stack(columns, axis=-1)

    def store(self, key, lanes, values) -> None:
        """Record converged states ``values[..., j]`` under ``lanes[j]``.

        Duplicate lane ids in one batch resolve last-write-wins, matching
        the order the rows were evaluated in.
        """
        values = np.asarray(values, dtype=float)
        slot = self._store.setdefault(key, {})
        for j, lane in enumerate(lanes):
            slot[int(lane)] = np.ascontiguousarray(values[..., j])
