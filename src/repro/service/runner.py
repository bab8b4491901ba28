"""One job's execution: cold build, warm reuse, shard-level refinement.

The runner is where the cache's economics are realised.  A **cold** Gibbs
job pays the full first stage (:func:`repro.gibbs.two_stage.fit_first_stage`)
and persists the lean artifact plus the second-stage weight record.  A
**warm** job re-uses the artifact with *zero* first-stage metric
evaluations and then takes the cheapest sufficient path:

* stored budget already covers the request — return the stored result
  outright (no simulations at all);
* same shard grid, larger budget — **refine**: run only the missing
  shards of the larger grid and merge their weights onto the stored
  record;
* mismatched shard grid — re-run the (cheap) second stage in full.

Refinement is bit-exact because of two deliberate choices.  First, the
second stage draws from a *tagged child stream* of the job seed
(:func:`second_stage_seed`) rather than from the generator the first
stage left behind — so the second-stage streams are knowable without
re-running stage 1.  Second, shard ``i`` of the grid always draws from
the spawn-indexed child at position ``i`` (``SeedSequence.spawn`` children
are prefix-stable), so the grid for ``N`` samples is a prefix of the grid
for ``N' > N`` whenever the stored count is a whole number of shards.
A refined result therefore equals a fresh warm run at the same total
budget, weight for weight, on every backend.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.analysis.experiments import run_method
from repro.gibbs.two_stage import FirstStageArtifact, fit_first_stage
from repro.mc.counter import CountedMetric
from repro.mc.results import ConvergenceTrace, EstimationResult
from repro.parallel.executor import ParallelExecutor
from repro.parallel.ledger import open_ledger, seed_key
from repro.parallel.sharding import plan_shards
from repro.parallel.transport import should_use_shm
from repro.parallel.workers import (
    ISShardTask,
    fold_external_counts,
    run_is_shard,
)
from repro.service.cache import ArtifactCache, CacheEntry
from repro.service.jobs import JobCancelled, JobRequest
from repro.service.keys import GIBBS_METHODS, job_key, request_identity
from repro.sram.cell import SixTransistorCell
from repro.sram.corners import corner_technology
from repro.sram.problems import (
    read_current_problem,
    read_noise_margin_problem,
    write_noise_margin_problem,
    write_time_problem,
)
from repro.stats.confidence import relative_error
from repro.stats.mvnormal import MultivariateNormal
from repro.telemetry import build_manifest
from repro.telemetry import context as _telemetry

#: Problem factories by request id.
PROBLEM_FACTORIES = {
    "rnm": read_noise_margin_problem,
    "wnm": write_noise_margin_problem,
    "iread": read_current_problem,
    "twrite": write_time_problem,
}

#: Fixed tag separating the second-stage stream from the first-stage one.
SECOND_STAGE_TAG = 0x5EC0


def second_stage_seed(seed: int) -> np.random.SeedSequence:
    """The second stage's root stream for a job seed.

    Derived from ``(seed, tag)`` directly — *not* from the generator the
    first stage threads — so a warm run knows the stream without paying
    the first stage, which is what makes cache-hit refinement possible.
    """
    return np.random.SeedSequence([int(seed), SECOND_STAGE_TAG])


def build_problem(request: JobRequest):
    """Instantiate the requested problem at its corner and spec.

    Non-nominal corners shift the problem cell's *own* technology (so
    ``iread`` keeps its read-fragile sizing) by ``sigma_global`` per
    :func:`repro.sram.corners.corner_technology`, preserving the standard
    global-mean / local-mismatch decomposition.
    """
    factory = PROBLEM_FACTORIES[request.problem]
    kwargs = {}
    if request.threshold is not None:
        kwargs["threshold"] = float(request.threshold)
    problem = factory(**kwargs)
    if request.corner.upper() != "TT":
        cell = problem.metric.cell
        shifted = SixTransistorCell(
            corner_technology(
                request.corner,
                base=cell.technology,
                sigma_global=request.sigma_global,
            ),
            cell.geometries,
        )
        problem = factory(cell=shifted, **kwargs)
    return problem


def _check_abort(should_abort: Optional[Callable[[], Optional[str]]]) -> None:
    """Cooperative cancellation: raise when the scheduler says stop.

    Checked at stage and shard-batch boundaries — a numpy kernel cannot
    be interrupted mid-call, so this is the granularity cancellation and
    timeouts actually have.
    """
    if should_abort is None:
        return
    reason = should_abort()
    if reason:
        raise JobCancelled(reason)


def _run_weight_shards(
    counted: CountedMetric,
    spec,
    proposal,
    nominal,
    shards,
    seeds,
    executor: ParallelExecutor,
    should_abort,
    ledger=None,
) -> List:
    """Evaluate IS shards on the service pool, in cancellable batches.

    Batches are a cancellation granularity only: the shard grid and the
    per-shard streams are fixed by the caller, so batching never changes
    the numbers (the determinism contract of the parallel layer).  With a
    ``ledger``, shards already persisted are replayed instead of re-run
    and every fresh completion is appended as it lands — a cancelled (or
    killed) job pays only for the missing shards next time.
    """
    results = []
    batch = max(executor.n_workers, 1) * 2
    ship_telemetry = _telemetry.ship_to_workers(executor)
    # Ledger rows must be self-contained, so checkpointing forces the
    # pickle transport (shm handles are single-use).
    shm = ledger is None and should_use_shm(executor, 0)
    for lo in range(0, len(shards), batch):
        _check_abort(should_abort)
        tasks = [
            ISShardTask(
                shard=shard,
                seed=child,
                metric=counted,
                spec=spec,
                proposal=proposal,
                nominal=nominal,
                shm_payloads=shm,
                telemetry=ship_telemetry,
            )
            for shard, child in zip(shards[lo:lo + batch], seeds[lo:lo + batch])
        ]
        if ledger is not None:
            replayed, tasks = ledger.split(tasks)
            results.extend(replayed)
        batch_results = executor.map(
            run_is_shard,
            tasks,
            on_result=ledger.record if ledger is not None else None,
        )
        # Fold fresh shards only: replayed ones were paid for by the run
        # that recorded them and must not charge the metric again.
        fold_external_counts(counted, executor, batch_results)
        results.extend(batch_results)
    return sorted(results, key=lambda r: r.index)


def _second_stage(
    counted: CountedMetric,
    spec,
    proposal,
    request: JobRequest,
    executor: ParallelExecutor,
    should_abort,
    reuse_weights: Optional[np.ndarray] = None,
    checkpoint_dir=None,
    resume: bool = True,
    ledger_key: Optional[str] = None,
) -> Tuple[np.ndarray, int, Optional[dict]]:
    """Run the parametric second stage up to the request's budget.

    With ``reuse_weights`` (a whole number of shards from a previous run
    on the same grid), only the missing tail of the shard grid is
    evaluated and the stored weights are kept verbatim — the refinement
    path.  With ``checkpoint_dir``, completed shards also land in a
    per-job ledger keyed by ``ledger_key``, the shard grid and the tagged
    second-stage stream — and *not* the sample budget, so a later
    refinement extends the same ledger (spawn children are prefix-stable).
    Returns the merged weight vector, the failure count and the ledger's
    resume summary (``None`` when not checkpointing).
    """
    n_total = int(request.n_second_stage)
    shard_size = int(request.shard_size)
    root = second_stage_seed(request.seed)
    shards = plan_shards(n_total, shard_size)
    seeds = list(root.spawn(len(shards)))
    first_new = 0
    if reuse_weights is not None:
        if reuse_weights.size % shard_size:
            raise ValueError(
                f"stored weight record ({reuse_weights.size} samples) is "
                f"not a whole number of {shard_size}-sample shards"
            )
        first_new = reuse_weights.size // shard_size
    nominal = MultivariateNormal.standard(counted.dimension)
    ledger = None
    if checkpoint_dir is not None:
        ledger = open_ledger(
            checkpoint_dir,
            "is",
            {
                "job": ledger_key,
                "shard_size": shard_size,
                "seed": seed_key(root),
            },
            resume=resume,
        )
    try:
        records = _run_weight_shards(
            counted, spec, proposal, nominal,
            shards[first_new:], seeds[first_new:], executor, should_abort,
            ledger=ledger,
        )
        if ledger is not None:
            _telemetry.fold_replayed_records(ledger.replayed_telemetry())
        resume_record = None if ledger is None else dict(
            ledger.summary(), shards_total=len(shards) - first_new,
        )
    finally:
        if ledger is not None:
            ledger.close()
    new_weights = (
        np.concatenate([r.weights for r in records])
        if records else np.empty(0)
    )
    if reuse_weights is not None:
        weights = np.concatenate([reuse_weights, new_weights])
    else:
        weights = new_weights
    return weights, int(np.count_nonzero(weights)), resume_record


def _gibbs_result(
    request: JobRequest,
    artifact: FirstStageArtifact,
    weights: np.ndarray,
    n_failures: int,
    n_first_stage: int,
    reused: bool,
) -> EstimationResult:
    """Assemble the estimate exactly as the serial second stage would."""
    extras = {
        "proposal": artifact.proposal,
        "n_failures": int(n_failures),
        "starting_point": artifact.starting_point,
        "first_stage_reused": bool(reused),
    }
    return EstimationResult(
        method=request.method,
        failure_probability=float(weights.mean()),
        relative_error=relative_error(weights),
        n_first_stage=int(n_first_stage),
        n_second_stage=int(weights.size),
        trace=ConvergenceTrace.from_weights(weights),
        extras=extras,
    )


def _lean_result(result: EstimationResult) -> EstimationResult:
    """A copy safe to persist: drops bulky/chain extras, keeps scalars."""
    keep = {
        key: value
        for key, value in result.extras.items()
        if key in ("proposal", "n_failures", "starting_point",
                   "first_stage_reused")
    }
    return dataclasses.replace(result, extras=keep)


def _run_plain_method(
    request: JobRequest,
    problem,
    executor,
    checkpoint_dir=None,
    resume: bool = True,
) -> EstimationResult:
    """Non-Gibbs methods: one uniform call into the experiment runner."""
    kwargs = {}
    if checkpoint_dir is not None:
        kwargs.update(checkpoint_dir=checkpoint_dir, resume=resume)
    return run_method(
        request.method,
        problem,
        rng=request.seed,
        n_second_stage=request.n_second_stage,
        n_gibbs=request.n_gibbs,
        n_chains=request.n_chains,
        doe_budget=request.doe_budget,
        n_exploration=request.n_exploration,
        executor=executor,
        shard_size=request.shard_size,
        **kwargs,
    )


def execute_job(
    request: JobRequest,
    cache: Optional[ArtifactCache] = None,
    executor: Optional[ParallelExecutor] = None,
    should_abort: Optional[Callable[[], Optional[str]]] = None,
    job_id: Optional[str] = None,
    problem=None,
    checkpoint_dir=None,
    resume: bool = True,
) -> Tuple[EstimationResult, dict]:
    """Run one yield-estimation job; return ``(result, manifest)``.

    Parameters
    ----------
    cache:
        Artifact cache consulted/updated when ``request.use_cache``;
        ``None`` runs cold and stores nothing.
    checkpoint_dir:
        Persist completed shards (first-stage chain groups and
        second-stage weight shards) to per-job ledgers in this directory
        so a killed job resumes bit-identically, paying only for missing
        shards.  The :class:`~repro.service.scheduler.YieldService`
        passes ``<cache_dir>/ledgers``.
    resume:
        With ``checkpoint_dir``: replay matching ledgers (default);
        ``False`` truncates them first.
    executor:
        The service's persistent pool; ``None`` builds an inline serial
        one (used by tests and one-shot CLI submission).
    should_abort:
        Cooperative cancellation hook — returns a reason string to stop
        (checked at stage and shard-batch boundaries) or falsy to keep
        going.
    problem:
        Prebuilt problem override (tests inject instrumented metrics);
        defaults to :func:`build_problem` on the request.
    """
    request.validate()
    t0 = time.perf_counter()
    _check_abort(should_abort)
    pool = executor if executor is not None else ParallelExecutor(1, "serial")
    if problem is None:
        problem = build_problem(request)
    counted = CountedMetric(problem.metric, problem.dimension)
    key = job_key(request)
    entry = (
        cache.get(key) if (cache is not None and request.use_cache) else None
    )
    is_gibbs = request.method in GIBBS_METHODS
    cache_hit = entry is not None
    _telemetry.count(
        "service.cache.hits" if cache_hit else "service.cache.misses"
    )

    mode = "cold"
    saved_sims = 0
    saved_seconds = 0.0
    resume_record = None
    with _telemetry.span(
        "service.job",
        job=job_id or "",
        problem=request.problem,
        method=request.method,
        cache_hit=cache_hit,
    ) as job_span:
        if entry is None:
            if is_gibbs:
                artifact = fit_first_stage(
                    counted,
                    problem.spec,
                    coordinate_system=GIBBS_METHODS[request.method],
                    n_gibbs=request.n_gibbs,
                    n_chains=request.n_chains,
                    chain_jitter=request.chain_jitter,
                    rng=np.random.default_rng(request.seed),
                    doe_budget=request.doe_budget,
                    surrogate_order=request.surrogate_order,
                    epsilon=request.epsilon,
                    zeta=request.zeta,
                    bisect_iters=request.bisect_iters,
                    ladder_width=request.ladder_width,
                    proposal_fit=request.proposal_fit,
                    executor=pool,
                    checkpoint_dir=checkpoint_dir,
                    resume=resume,
                )
                _check_abort(should_abort)
                weights, n_failures, resume_record = _second_stage(
                    counted, problem.spec, artifact.proposal, request,
                    pool, should_abort,
                    checkpoint_dir=checkpoint_dir, resume=resume,
                    ledger_key=key,
                )
                result = _gibbs_result(
                    request, artifact, weights, n_failures,
                    artifact.n_first_stage, reused=False,
                )
                if cache is not None:
                    cache.put(key, CacheEntry(
                        key=key,
                        config=request_identity(request),
                        result=_lean_result(result),
                        artifact=artifact.lean(),
                        second_stage={
                            "shard_size": int(request.shard_size),
                            "n_samples": int(weights.size),
                            "weights": weights,
                            "n_failures": int(n_failures),
                        },
                    ))
            else:
                result = _run_plain_method(
                    request, problem, pool,
                    checkpoint_dir=checkpoint_dir, resume=resume,
                )
                if cache is not None:
                    cache.put(key, CacheEntry(
                        key=key,
                        config=request_identity(request),
                        result=_lean_result(result),
                    ))
        elif is_gibbs:
            artifact = entry.artifact
            artifact.validate(GIBBS_METHODS[request.method])
            saved_sims = int(artifact.n_first_stage)
            saved_seconds = float(artifact.fit_seconds)
            record = entry.second_stage or {}
            stored_n = int(record.get("n_samples", 0))
            same_grid = record.get("shard_size") == int(request.shard_size)
            if same_grid and request.n_second_stage <= stored_n:
                # Budget is a floor; the stored estimate already covers it.
                mode = "cached_result"
                result = entry.result
            elif (
                same_grid
                and stored_n
                and stored_n % int(request.shard_size) == 0
            ):
                mode = "refined"
                weights, n_failures, resume_record = _second_stage(
                    counted, problem.spec, artifact.proposal, request,
                    pool, should_abort,
                    reuse_weights=np.asarray(record["weights"], dtype=float),
                    checkpoint_dir=checkpoint_dir, resume=resume,
                    ledger_key=key,
                )
                result = _gibbs_result(
                    request, artifact, weights, n_failures, 0, reused=True,
                )
                cache.note_refinement(key)
                cache.put(key, dataclasses.replace(
                    entry,
                    result=_lean_result(result),
                    second_stage={
                        "shard_size": int(request.shard_size),
                        "n_samples": int(weights.size),
                        "weights": weights,
                        "n_failures": int(n_failures),
                    },
                ))
            else:
                # Grid mismatch (or a partial trailing shard): the stored
                # weights are unusable but the artifact is not — re-run
                # only the cheap second stage.
                mode = "second_stage_rerun"
                weights, n_failures, resume_record = _second_stage(
                    counted, problem.spec, artifact.proposal, request,
                    pool, should_abort,
                    checkpoint_dir=checkpoint_dir, resume=resume,
                    ledger_key=key,
                )
                result = _gibbs_result(
                    request, artifact, weights, n_failures, 0, reused=True,
                )
                cache.put(key, dataclasses.replace(
                    entry,
                    result=_lean_result(result),
                    second_stage={
                        "shard_size": int(request.shard_size),
                        "n_samples": int(weights.size),
                        "weights": weights,
                        "n_failures": int(n_failures),
                    },
                ))
        else:
            saved_sims = int(entry.result.n_first_stage)
            if request.n_second_stage <= entry.result.n_second_stage:
                mode = "cached_result"
                result = entry.result
            else:
                # Non-Gibbs methods carry no reusable artifact: a larger
                # budget re-runs the whole flow (and refreshes the entry).
                mode = "rerun"
                result = _run_plain_method(
                    request, problem, pool,
                    checkpoint_dir=checkpoint_dir, resume=resume,
                )
                cache.put(key, dataclasses.replace(
                    entry, result=_lean_result(result),
                ))
        job_span.add("sims", counted.count)

    if is_gibbs:
        sims_run = int(counted.count)
    else:
        sims_run = 0 if mode == "cached_result" else int(result.n_total)
        # Ledger-replayed shards were simulated by an earlier (killed)
        # run; the result's own totals keep them, the job's bill doesn't.
        replayed = result.extras.get("resume") or {}
        sims_run = max(sims_run - int(replayed.get("sims_replayed", 0)), 0)
    # First-stage simulations *this job executed* — zero on every warm
    # path (the stored result's own accounting stays on the result).
    if mode in ("cached_result", "refined", "second_stage_rerun"):
        first_stage_sims = 0
    else:
        first_stage_sims = int(result.n_first_stage)
    manifest = build_manifest(
        command="service",
        problem=request.problem,
        method=request.method,
        seed=request.seed,
        n_workers=pool.n_workers,
        backend=pool.backend,
        extra={"job": {
            "id": job_id,
            "key": key,
            "cache_hit": bool(cache_hit),
            "mode": mode,
            "first_stage_sims": first_stage_sims,
            "first_stage_sims_saved": int(saved_sims),
            "first_stage_seconds_saved": float(saved_seconds),
            "sims_run": sims_run,
            "n_second_stage": int(result.n_second_stage),
            "wall_seconds": time.perf_counter() - t0,
            "cache": cache.stats() if cache is not None else None,
            "resume": resume_record or result.extras.get("resume"),
        }},
    )
    return result, manifest
