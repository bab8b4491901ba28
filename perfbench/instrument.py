"""Benchmark-side spans around each layer's public entry points.

The library already emits spans at its stage boundaries (``gibbs.
first_stage``, ``second_stage``, ``parallel.map``, ``shard.*``,
``ledger.record``, ``service.job``) and counters in its hot paths
(``newton.*``, ``bisect.*``, ``metric.*``, ``shm.*``).  The layers below
those boundaries — the SRAM simulator, the interval search, the proposal
fit, the IS weights, the artifact cache — are measured here, from
outside, by wrapping the functions the layer above calls.  Every wrapper
opens its span through :func:`repro.telemetry.span`, so spans taken in a
pool worker land in that worker's shard recorder and travel home with the
shard result.

Workers must inherit the wrappers: install them before the pool starts
(the process backend forks its workers from this process).  With no
recorder active each wrapper costs one extra call and one ``is None``
check; untraced measurements run without them installed at all.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import telemetry

Patch = Tuple[object, str, object]


def _patch(patches: List[Patch], owner, attr: str, span_name: str,
           before: Optional[Callable] = None,
           after: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` by a wrapper timing it as ``span_name``.

    ``before(args)`` / ``after(result)`` return span counters.  Class
    methods keep their descriptor type.  The original lands in
    ``patches`` so :func:`instrumented` can restore it.
    """
    raw = owner.__dict__[attr]
    descriptor = type(raw) if isinstance(raw, classmethod) else None
    func = raw.__func__ if descriptor is not None else raw

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with telemetry.span(span_name) as sp:
            if before is not None:
                for key, value in before(args).items():
                    sp.add(key, value)
            result = func(*args, **kwargs)
            if after is not None:
                for key, value in after(result).items():
                    sp.add(key, value)
        return result

    setattr(owner, attr, descriptor(wrapper) if descriptor else wrapper)
    patches.append((owner, attr, raw))


@contextlib.contextmanager
def instrumented():
    """Wrap every measured entry point for the duration of the block."""
    from repro.gibbs import inverse_transform, two_stage
    from repro.gibbs.cartesian import CartesianGibbs
    from repro.gibbs.spherical import SphericalGibbs
    from repro.mc import importance
    from repro.service.cache import ArtifactCache
    from repro.sram import metrics
    from repro.sram.cell import SixTransistorCell
    from repro.stats.mvnormal import MultivariateNormal

    patches: List[Patch] = []
    try:
        # sram: one span per simulator call, with the rows it simulated.
        _patch(patches, metrics.SramMetric, "evaluate", "sram.evaluate",
               before=lambda args: {"rows": int(np.shape(args[1])[0])})
        _patch(patches, SixTransistorCell, "half_cell_vtc", "sram.vtc")
        _patch(patches, SixTransistorCell, "solve_read_state",
               "sram.read_state")
        _patch(patches, metrics, "lobe_margins", "sram.margin")
        _patch(patches, metrics, "write_margin", "sram.margin")
        # gibbs: starting-point search, chains, interval search.
        _patch(patches, two_stage, "find_starting_point", "gibbs.start_point")
        for sampler in (CartesianGibbs, SphericalGibbs):
            for method in ("run", "run_lockstep"):
                _patch(patches, sampler, method, "gibbs.chain",
                       after=lambda chain: {"samples": chain.n_samples})
        _patch(patches, inverse_transform, "failure_interval", "bisect.search")
        _patch(patches, inverse_transform, "batched_failure_interval",
               "bisect.search")
        # stats: the proposal fit.
        _patch(patches, MultivariateNormal, "fit", "stats.proposal_fit")
        # mc: IS weights (IS shards import them from this module per call).
        _patch(patches, importance, "importance_weights", "mc.is_weights")
        # service: the artifact cache.
        _patch(patches, ArtifactCache, "get", "service.cache_get")
        _patch(patches, ArtifactCache, "put", "service.cache_put")
        yield
    finally:
        while patches:
            owner, attr, raw = patches.pop()
            setattr(owner, attr, raw)
