"""Spawn-safe shard workers and their task/result records.

Everything in this module is a top-level function or a plain dataclass, so
tasks pickle cleanly under every multiprocessing start method.  Workers
follow one discipline: consume only what the task carries, mutate only
local state, and return *everything* the parent needs to merge — failure
tallies, per-checkpoint cumulative counts, importance weights, and the
simulation/call counts the parent folds back into its own
:class:`~repro.mc.counter.CountedMetric` via ``add_external``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro import telemetry
from repro.parallel.ledger import host_stamp
from repro.parallel.sharding import Shard
from repro.parallel.transport import ShmArrayHandle, discard_array, pack_array


# --------------------------------------------------------------- brute MC
@dataclass
class MCShardTask:
    """One brute-force Monte-Carlo shard: draw, evaluate, tally.

    ``checkpoints`` is the *global* convergence-checkpoint grid; the worker
    keeps only the checkpoints that land inside its own sample span.
    """

    shard: Shard
    seed: np.random.SeedSequence
    metric: Callable
    spec: object
    dimension: int
    chunk_size: int
    checkpoints: np.ndarray
    #: Parent's :func:`repro.telemetry.ship_to_workers` decision: record
    #: into a worker-local recorder and ship its snapshot home.
    telemetry: bool = False


@dataclass
class MCShardResult:
    """Mergeable outcome of one MC shard (see ``merge_mc_shards``)."""

    index: int
    offset: int
    count: int
    n_failures: int
    #: Global checkpoint values inside this shard's span.
    checkpoints: np.ndarray
    #: Within-shard cumulative failure count at each of those checkpoints.
    cum_failures: np.ndarray
    #: Simulations evaluated (= ``count``) and metric invocations issued,
    #: for exact cost accounting across process boundaries.
    n_sims: int = 0
    n_calls: int = 0
    #: Worker recorder snapshot (process backend only; see
    #: :func:`repro.telemetry.fold_shard_records`).
    telemetry: Optional[dict] = None
    #: Where the shard ran (hostname / pid / cpu_count), for ledger rows
    #: and multi-host attribution; see :func:`repro.parallel.ledger.host_stamp`.
    host: Optional[dict] = None


def run_mc_shard(task: MCShardTask) -> MCShardResult:
    """Execute one brute-force MC shard with its own deterministic stream."""
    shard = task.shard
    shard_tel = telemetry.ShardTelemetry(task.telemetry, f"mc-{shard.index}")
    with shard_tel, telemetry.span(
        "shard.mc", index=shard.index, offset=shard.offset, count=shard.count
    ) as sp:
        rng = np.random.default_rng(task.seed)
        lo, hi = shard.offset, shard.offset + shard.count
        cps = task.checkpoints[
            (task.checkpoints > lo) & (task.checkpoints <= hi)
        ]
        cp_cum = np.zeros(cps.size, dtype=np.int64)

        failures = 0
        seen = 0
        next_cp = 0
        n_calls = 0
        while seen < shard.count:
            take = min(task.chunk_size, shard.count - seen)
            x = rng.standard_normal((take, task.dimension))
            fail = task.spec.indicator(task.metric(x))
            n_calls += 1
            cum_inside = np.cumsum(fail)
            while next_cp < cps.size and cps[next_cp] <= lo + seen + take:
                at_local = int(cps[next_cp]) - lo - seen
                cp_cum[next_cp] = failures + int(cum_inside[at_local - 1])
                next_cp += 1
            failures += int(fail.sum())
            seen += take
        sp.add("sims", shard.count)
        sp.add("failures", failures)
    return MCShardResult(
        index=shard.index,
        offset=shard.offset,
        count=shard.count,
        n_failures=failures,
        checkpoints=cps,
        cum_failures=cp_cum,
        n_sims=shard.count,
        n_calls=n_calls,
        telemetry=shard_tel.record(),
        host=host_stamp(),
    )


class TallyMetric:
    """A thin row/call tally around the task's metric.

    Unlike :class:`~repro.mc.counter.CountedMetric` it owns no shared
    state: every worker builds its own instance, so the tallies in a shard
    result are exactly that shard's cost on *every* backend.  When the
    wrapped metric is itself the caller's ``CountedMetric`` (inline and
    thread execution share it), its own lock-guarded counts still
    accumulate directly — the tally only adds the shard-local breakdown
    the process backend needs for :func:`fold_external_counts`.
    """

    def __init__(self, metric: Callable):
        self.metric = metric
        self.n_sims = 0
        self.n_calls = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self.n_sims += x.shape[0]
        self.n_calls += 1
        return self.metric(x)


# ------------------------------------------------------ first-stage Gibbs
@dataclass
class GibbsShardTask:
    """One first-stage shard: a contiguous *group of chains* run in lockstep.

    The shard grid partitions chains, not samples: ``shard.offset`` is the
    global index of the group's first chain and ``shard.count`` the number
    of chains in the group.  ``chain_seeds`` carries the spawn-indexed
    child seed of *each* chain in the group — chain ``offset + i`` always
    receives the child stream at spawn index ``offset + i``, whatever the
    grouping — so per-chain trajectories are bit-identical for any group
    size, worker count and backend (see
    ``CartesianGibbs.run_lockstep(chain_rngs=...)``).
    """

    shard: Shard
    chain_seeds: List[np.random.SeedSequence]
    metric: Callable
    spec: object
    dimension: int
    coordinate_system: str
    #: ``(count, M)`` Cartesian starting points for the group's chains.
    starts: np.ndarray
    n_gibbs: int
    zeta: float = 8.0
    bisect_iters: int = 5
    epsilon: float = 1e-2
    sampler_options: dict = field(default_factory=dict)
    #: Parent's decision to ship the sample tensor via shared memory.
    shm_payloads: bool = False
    #: Parent's decision to record worker-local telemetry (see
    #: :func:`repro.telemetry.ship_to_workers`).
    telemetry: bool = False


@dataclass
class GibbsShardResult:
    """Mergeable outcome of one chain-group shard.

    ``samples`` / ``interval_widths`` may arrive as
    :class:`~repro.parallel.transport.ShmArrayHandle` when the task asked
    for shared-memory transport; ``merge_chain_shards`` resolves either
    form transparently.
    """

    index: int
    offset: int
    count: int
    #: ``(count, K, M)`` sample tensor or a shared-memory handle to it.
    samples: object
    per_chain_simulations: np.ndarray
    #: ``(count, K)`` interval widths or a shared-memory handle.
    interval_widths: object
    n_sims: int = 0
    n_calls: int = 0
    #: Worker recorder snapshot (process backend only).
    telemetry: Optional[dict] = None
    #: Where the shard ran (see :func:`repro.parallel.ledger.host_stamp`).
    host: Optional[dict] = None


def run_gibbs_shard(task: GibbsShardTask) -> GibbsShardResult:
    """Run ``run_lockstep`` on one contiguous chain group.

    Starting points are *not* re-verified here: the parent verified (or
    deliberately duplicated) them in ``_spread_starting_points`` before
    planning the shards, and re-simulating them per group would charge the
    flow ``n_chains`` extra simulations.
    """
    # Local imports: repro.gibbs packages import the parallel layer through
    # repro.mc.importance, so the samplers must resolve lazily here.
    from repro.gibbs.cartesian import CartesianGibbs
    from repro.gibbs.coordinates import initial_spherical_coordinates
    from repro.gibbs.spherical import SphericalGibbs

    shard_tel = telemetry.ShardTelemetry(
        task.telemetry, f"gibbs-{task.shard.index}"
    )
    with shard_tel, telemetry.span(
        "shard.gibbs",
        index=task.shard.index,
        offset=task.shard.offset,
        chains=task.shard.count,
        coordinate_system=task.coordinate_system,
    ) as sp:
        tally = TallyMetric(task.metric)
        chain_rngs = [np.random.default_rng(seed) for seed in task.chain_seeds]
        starts = np.atleast_2d(np.asarray(task.starts, dtype=float))
        if task.coordinate_system == "cartesian":
            sampler = CartesianGibbs(
                tally, task.spec, task.dimension, zeta=task.zeta,
                bisect_iters=task.bisect_iters, **task.sampler_options,
            )
            multi = sampler.run_lockstep(
                starts, task.n_gibbs, chain_rngs=chain_rngs, verify_start=False
            )
        elif task.coordinate_system == "spherical":
            sampler = SphericalGibbs(
                tally, task.spec, task.dimension, zeta=task.zeta,
                bisect_iters=task.bisect_iters, **task.sampler_options,
            )
            spherical = [
                initial_spherical_coordinates(point, task.epsilon)
                for point in starts
            ]
            multi = sampler.run_lockstep(
                np.array([r for r, _ in spherical]),
                np.vstack([alpha for _, alpha in spherical]),
                task.n_gibbs,
                chain_rngs=chain_rngs,
                verify_start=False,
            )
        else:
            raise ValueError(
                f"coordinate_system must be 'cartesian' or 'spherical', "
                f"got {task.coordinate_system!r}"
            )
        # Exception-safe export: if the second pack (or anything after the
        # first) raises, nobody will ever import the earlier handle, so
        # unlink it here instead of leaking the segment until reboot.
        exports: List[ShmArrayHandle] = []
        try:
            samples_payload = pack_array(multi.samples, task.shm_payloads)
            if isinstance(samples_payload, ShmArrayHandle):
                exports.append(samples_payload)
            widths_payload = pack_array(
                multi.interval_widths, task.shm_payloads
            )
        except BaseException:
            for handle in exports:
                discard_array(handle)
            raise
        sp.add("sims", tally.n_sims)
        sp.add("calls", tally.n_calls)
    return GibbsShardResult(
        index=task.shard.index,
        offset=task.shard.offset,
        count=task.shard.count,
        samples=samples_payload,
        per_chain_simulations=multi.per_chain_simulations,
        interval_widths=widths_payload,
        n_sims=tally.n_sims,
        n_calls=tally.n_calls,
        telemetry=shard_tel.record(),
        host=host_stamp(),
    )


# ----------------------------------------------------- importance sampling
@dataclass
class ISShardTask:
    """One importance-sampling shard: sample the proposal, weight."""

    shard: Shard
    seed: np.random.SeedSequence
    metric: Callable
    spec: object
    proposal: object
    nominal: object
    store_samples: bool = False
    #: Parent's decision to ship stored samples via shared memory.
    shm_payloads: bool = False
    #: Parent's decision to record worker-local telemetry (see
    #: :func:`repro.telemetry.ship_to_workers`).
    telemetry: bool = False


@dataclass
class ISShardResult:
    """Mergeable outcome of one IS shard (weights in sample order).

    ``samples`` is either the ``(count, M)`` array itself or a
    :class:`~repro.parallel.transport.ShmArrayHandle` when the task asked
    for shared-memory transport of the stored payload.
    """

    index: int
    count: int
    weights: np.ndarray
    n_failures: int
    samples: object = None
    failed: Optional[np.ndarray] = None
    n_sims: int = 0
    n_calls: int = 0
    #: Worker recorder snapshot (process backend only).
    telemetry: Optional[dict] = None
    #: Where the shard ran (see :func:`repro.parallel.ledger.host_stamp`).
    host: Optional[dict] = None


def run_is_shard(task: ISShardTask) -> ISShardResult:
    """Execute one second-stage shard with its own deterministic stream.

    Stateless proposals draw from the shard's child stream; a stateful
    proposal (one whose ``sample`` ignores ``rng``, e.g. the Sobol-backed
    :class:`~repro.stats.qmc.QMCNormal`) must expose ``sample_shard`` and
    is given the shard's offset instead, so every worker — pickled copy or
    thread sharing the caller's object — draws its own disjoint slice of
    the one underlying sequence.
    """
    # Local import: repro.mc.importance itself imports the parallel layer,
    # so the weight helper is resolved lazily here.
    from repro.mc.importance import importance_weights

    shard = task.shard
    shard_tel = telemetry.ShardTelemetry(task.telemetry, f"is-{shard.index}")
    with shard_tel, telemetry.span(
        "shard.is", index=shard.index, offset=shard.offset, count=shard.count
    ) as sp:
        sample_shard = getattr(task.proposal, "sample_shard", None)
        if sample_shard is not None:
            x = sample_shard(shard.offset, shard.count)
        else:
            rng = np.random.default_rng(task.seed)
            x = task.proposal.sample(shard.count, rng)
        fail = np.asarray(task.spec.indicator(task.metric(x)), dtype=bool)
        weights = importance_weights(x, fail, task.proposal, task.nominal)
        samples_payload = (
            pack_array(x, task.shm_payloads) if task.store_samples else None
        )
        sp.add("sims", shard.count)
        sp.add("failures", int(fail.sum()))
    return ISShardResult(
        index=shard.index,
        count=shard.count,
        weights=weights,
        n_failures=int(fail.sum()),
        samples=samples_payload,
        failed=fail if task.store_samples else None,
        n_sims=shard.count,
        n_calls=1,
        telemetry=shard_tel.record(),
        host=host_stamp(),
    )


# ------------------------------------------------- statistical blockade
@dataclass
class BlockadeShardTask:
    """One blockade screening shard: generate, classify, simulate the tail.

    The shard covers ``count`` *generated* Monte-Carlo candidates; the
    trained classifier and its threshold travel with the task, so workers
    only screen and simulate — training stays in the parent.
    """

    shard: Shard
    seed: np.random.SeedSequence
    metric: Callable
    spec: object
    classifier: object
    threshold: float
    dimension: int
    chunk_size: int
    #: Parent's decision to record worker-local telemetry (see
    #: :func:`repro.telemetry.ship_to_workers`).
    telemetry: bool = False


@dataclass
class BlockadeShardResult:
    """Mergeable outcome of one blockade screening shard."""

    index: int
    count: int
    n_failures: int
    n_simulated: int
    n_sims: int = 0
    n_calls: int = 0
    #: Worker recorder snapshot (process backend only).
    telemetry: Optional[dict] = None
    #: Where the shard ran (see :func:`repro.parallel.ledger.host_stamp`).
    host: Optional[dict] = None


def run_blockade_shard(task: BlockadeShardTask) -> BlockadeShardResult:
    """Screen one shard of blockade candidates with its own child stream."""
    shard_tel = telemetry.ShardTelemetry(
        task.telemetry, f"blockade-{task.shard.index}"
    )
    with shard_tel, telemetry.span(
        "shard.blockade",
        index=task.shard.index,
        offset=task.shard.offset,
        count=task.shard.count,
    ) as sp:
        rng = np.random.default_rng(task.seed)
        tally = TallyMetric(task.metric)
        failures = 0
        simulated = 0
        generated = 0
        while generated < task.shard.count:
            take = min(task.chunk_size, task.shard.count - generated)
            x = rng.standard_normal((take, task.dimension))
            candidate = task.classifier.predict(x) < task.threshold
            if np.any(candidate):
                values = tally(x[candidate])
                failures += int(np.sum(task.spec.indicator(values)))
                simulated += int(candidate.sum())
            generated += take
        sp.add("generated", task.shard.count)
        sp.add("sims", tally.n_sims)
        sp.add("failures", failures)
    return BlockadeShardResult(
        index=task.shard.index,
        count=task.shard.count,
        n_failures=failures,
        n_simulated=simulated,
        n_sims=tally.n_sims,
        n_calls=tally.n_calls,
        telemetry=shard_tel.record(),
        host=host_stamp(),
    )


def distinct_hosts(shard_results) -> List[dict]:
    """Deduplicated host stamps across a run's shard results.

    One entry per (hostname, pid) — i.e. per worker process — with the
    number of shards it computed, for ``extras`` / bench worker records.
    """
    seen = {}
    for result in shard_results:
        stamp = getattr(result, "host", None)
        if not stamp:
            continue
        key = (stamp.get("hostname"), stamp.get("pid"))
        if key not in seen:
            seen[key] = dict(stamp, n_shards=0)
        seen[key]["n_shards"] += 1
    return [seen[key] for key in sorted(seen, key=lambda k: (str(k[0]), str(k[1])))]


def fold_external_counts(metric, executor, shard_results) -> None:
    """Fold worker-local simulation counts back into the parent counter.

    Inline and thread backends share the caller's metric object, so a
    :class:`~repro.mc.counter.CountedMetric` has already counted every
    worker evaluation (exactly — its increments are lock-guarded, so
    concurrent threads never lose counts); only the process backend
    isolates worker state, and there the deltas come home inside the shard
    results.  Calling this after every sharded run keeps first/second-stage
    accounting exact on all backends.
    """
    if not executor.cross_process:
        return
    # Worker recorder snapshots come home on the same boat as the counts
    # and fold into the parent's active recorder here — before the
    # add_external lookup, so shard spans survive even for metrics that
    # carry no counter of their own.
    telemetry.fold_shard_records(shard_results)
    add_external = getattr(metric, "add_external", None)
    if add_external is None:
        return
    add_external(
        sum(r.n_sims for r in shard_results),
        calls=sum(r.n_calls for r in shard_results),
    )
