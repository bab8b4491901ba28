"""One job's execution: one path, with reuse read off the ledgers.

A job that a stored result already covers (same shard grid, at least the
requested budget) returns it outright, with no simulations.  Every other
job runs the same path: take the stored lean first-stage artifact, or
build it (:func:`repro.gibbs.two_stage.fit_first_stage`), then run the
second stage through
:func:`repro.mc.importance.importance_sampling_estimate` — or the
non-Gibbs method through :func:`repro.analysis.experiments.run_method` —
with its shards checkpointed to the cache's ``ledgers/`` directory.  The
ledgers are the one shard-reuse mechanism: a larger budget replays the
shards already on disk and simulates only the new ones, a killed job
resumes from its finished shards, and a deleted ledger only costs
simulations, never bits.  The manifest's mode label (``cold``,
``refined``, ``second_stage_rerun``, ``rerun``) is computed from the
artifact hit and the ledger's replay summary; it never picks a path.

Reuse is bit-exact because of two deliberate choices.  First, the
second stage draws from a *tagged child stream* of the job seed
(:func:`second_stage_seed`) rather than from the generator the first
stage left behind — so the second-stage streams are knowable without
re-running stage 1.  Second, shard ``i`` of the grid always draws from
the spawn-indexed child at position ``i`` (``SeedSequence.spawn`` children
are prefix-stable), so the grid for ``N`` samples is a prefix of the grid
for ``N' > N``, and the IS ledger's run key leaves the budget out.  A
refined result therefore equals a fresh run at the same total budget,
weight for weight, on every backend.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional, Tuple

import numpy as np

from repro.analysis.experiments import run_method
from repro.gibbs.two_stage import fit_first_stage
from repro.mc.counter import CountedMetric
from repro.mc.importance import importance_sampling_estimate
from repro.mc.results import EstimationResult
from repro.parallel.executor import ParallelExecutor
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

    Checked when the job starts, between its stages and after every
    shard completion (:meth:`ParallelExecutor.cancellation_hook`) — a
    numpy kernel cannot be interrupted mid-call, so this is the
    granularity cancellation and timeouts actually have.
    """
    if should_abort is None:
        return
    reason = should_abort()
    if reason:
        raise JobCancelled(reason)


def _lean_result(result: EstimationResult) -> EstimationResult:
    """A copy safe to persist: scalars, trace and the scalar extras."""
    keep = {
        key: result.extras[key]
        for key in ("n_failures", "first_stage_reused")
        if key in result.extras
    }
    return dataclasses.replace(result, extras=keep)


def execute_job(
    request: JobRequest,
    cache: Optional[ArtifactCache] = None,
    executor: Optional[ParallelExecutor] = None,
    should_abort: Optional[Callable[[], Optional[str]]] = None,
    job_id: Optional[str] = None,
    problem=None,
) -> Tuple[EstimationResult, dict]:
    """Run one yield-estimation job; return ``(result, manifest)``.

    Parameters
    ----------
    cache:
        Artifact cache consulted/updated when ``request.use_cache``;
        ``None`` runs cold and stores nothing.  With a cache, every
        sampled stage checkpoints its shards to the ledgers under
        ``<cache root>/ledgers``, whether or not the request reads the
        cache: a killed or cancelled job resumes bit-identically on
        resubmission, paying only for the missing shards.
    executor:
        The service's persistent pool; ``None`` builds an inline serial
        one (used by tests and one-shot CLI submission).
    should_abort:
        Cooperative cancellation hook — returns a reason string to stop
        (checked at the start, between stages and after every shard) or
        falsy to keep going.
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
    ledgers = cache.root / "ledgers" if cache is not None else None
    is_gibbs = request.method in GIBBS_METHODS
    cache_hit = entry is not None
    artifact = entry.artifact if cache_hit else None
    _telemetry.count(
        "service.cache.hits" if cache_hit else "service.cache.misses"
    )

    abort_hook = pool.cancellation_hook(lambda: _check_abort(should_abort))
    with _telemetry.span(
        "service.job",
        job=job_id or "",
        problem=request.problem,
        method=request.method,
        cache_hit=cache_hit,
    ) as job_span, abort_hook:
        mode = None
        if (
            cache_hit
            and entry.shard_size == request.shard_size
            and entry.result.n_second_stage >= request.n_second_stage
        ):
            # Budget is a floor; the stored estimate already covers it.
            mode = "cached_result"
            result = entry.result
            if artifact is not None:
                result.extras.update(
                    proposal=artifact.proposal,
                    starting_point=artifact.starting_point,
                )
        elif is_gibbs:
            if artifact is None:
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
                    checkpoint_dir=ledgers,
                )
            else:
                artifact.validate(GIBBS_METHODS[request.method])
            _check_abort(should_abort)
            result = importance_sampling_estimate(
                counted,
                problem.spec,
                artifact.proposal,
                request.n_second_stage,
                method=request.method,
                rng=second_stage_seed(request.seed),
                n_first_stage=0 if cache_hit else artifact.n_first_stage,
                extras={
                    "starting_point": artifact.starting_point,
                    "first_stage_reused": cache_hit,
                },
                executor=pool,
                shard_size=request.shard_size,
                checkpoint_dir=ledgers,
            )
        else:
            result = run_method(
                request.method,
                problem,
                rng=request.seed,
                n_second_stage=request.n_second_stage,
                n_gibbs=request.n_gibbs,
                n_chains=request.n_chains,
                doe_budget=request.doe_budget,
                n_exploration=request.n_exploration,
                executor=pool,
                shard_size=request.shard_size,
                checkpoint_dir=ledgers,
            )
        resume = result.extras.get("resume") or {}
        if mode is None:
            # The label reports which reuse happened; it never picks a
            # path.  A stored first stage whose second stage replayed
            # ledger shards was refined; one that replayed none re-ran it.
            if not cache_hit:
                mode = "cold"
            elif not is_gibbs:
                mode = "rerun"
            elif resume.get("shards_replayed"):
                mode = "refined"
                cache.note_refinement(key)
            else:
                mode = "second_stage_rerun"
            if cache is not None:
                cache.put(key, CacheEntry(
                    key=key,
                    config=request_identity(request),
                    result=_lean_result(result),
                    shard_size=int(request.shard_size),
                    artifact=artifact.lean() if artifact else None,
                ))
        job_span.add("sims", counted.count)

    if mode == "cached_result":
        sims_run = 0
    elif is_gibbs:
        sims_run = int(counted.count)
    else:
        # Ledger-replayed shards were simulated by an earlier (killed)
        # run; the result's own totals keep them, the job's bill doesn't.
        sims_run = max(
            int(result.n_total) - int(resume.get("sims_replayed", 0)), 0
        )
    saved_sims, saved_seconds = 0, 0.0
    if cache_hit and artifact is not None:
        saved_sims, saved_seconds = artifact.n_first_stage, artifact.fit_seconds
    elif cache_hit:
        saved_sims = entry.result.n_first_stage
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
            # First-stage simulations *this job executed*: zero whenever
            # the stored first stage was reused.
            "first_stage_sims": (
                0 if mode == "cached_result" else int(result.n_first_stage)
            ),
            "first_stage_sims_saved": int(saved_sims),
            "first_stage_seconds_saved": float(saved_seconds),
            "sims_run": sims_run,
            "n_second_stage": int(result.n_second_stage),
            "wall_seconds": time.perf_counter() - t0,
            "cache": cache.stats() if cache is not None else None,
            "resume": result.extras.get("resume"),
        }},
    )
    return result, manifest
