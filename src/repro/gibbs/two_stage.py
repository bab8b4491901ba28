"""The complete two-stage Monte-Carlo flow (Algorithm 5).

Stage 1: find a starting point (Algorithm 4), run the Gibbs chain
(Algorithm 1 or 2) for K samples, and fit the importance distribution
``g_nor`` — a full-covariance multivariate Normal — to the chain's
Cartesian samples.  Because the starting point already sits at the failure
region's most-likely point, no warm-up samples are discarded (Section IV-C).

Stage 2: draw N samples from ``g_nor`` and evaluate the estimator of
Eq. (33) with its 99%-CI relative error and convergence trace.

The paper's key differentiator is captured here: unlike the mean-shift
baselines, the Gibbs chain determines *both the mean and the covariance* of
``g_nor``, so the second stage converges with far fewer simulations.
An optional Gaussian-mixture fit implements the non-Normal extension the
paper defers to future work (Section IV-C).

With ``n_chains > 1`` the first stage runs the **lockstep multi-chain
engine**: ``C`` chains start from jittered copies of the Algorithm-4
minimum-norm point, advance synchronously (each bisection step issues one
batched metric call across the chains of a group), and all chains'
Cartesian samples are pooled for the ``g_nor`` fit.  Cross-chain mixing
diagnostics (split Gelman-Rubin ``R-hat``, pooled ESS) land in
``extras["chain_diagnostics"]``.  ``n_chains=1`` runs the paper's single
chain as one inline lockstep chain on the flow's own stream (not on a
spawned child), so ``extras["chain"]`` is always a
:class:`~repro.gibbs.cartesian.MultiChainGibbs` and ``g_nor`` is always
fitted to its ``pooled_samples``.

The chain groups run on an executor (see :func:`run_first_stage`) —
inline by default, or fanned out over ``n_workers`` processes: every
chain owns the spawn-indexed child stream at its global chain index, so
the merged chain is bit-identical for any group size, worker count and
backend.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

import numpy as np

from repro.gibbs.cartesian import CartesianGibbs, MultiChainGibbs
from repro.gibbs.spherical import SphericalGibbs
from repro.gibbs.starting_point import StartingPoint, find_starting_point
from repro.mc.counter import CountedMetric
from repro.mc.diagnostics import diagnose_chains
from repro.mc.importance import importance_sampling_estimate
from repro.mc.indicator import FailureSpec
from repro.mc.results import SCHEMA_VERSION, EstimationResult
from repro.parallel.executor import ParallelExecutor, resolve_executor
from repro.parallel.ledger import metric_fingerprint, open_ledger, seed_key
from repro.parallel.sharding import merge_chain_shards, plan_shards
from repro.parallel.workers import (
    GibbsShardTask,
    fold_external_counts,
    run_gibbs_shard,
)
from repro.stats.mixture import GaussianMixture
from repro.stats.mvnormal import MultivariateNormal
from repro.telemetry import context as _telemetry
from repro.utils.rng import (
    SeedLike,
    as_seed_sequence,
    ensure_rng,
    spawn_seed_sequences,
)

#: Method labels used throughout the experiment harness and the paper.
LABELS = {"cartesian": "G-C", "spherical": "G-S"}


@dataclass
class FirstStageArtifact:
    """Everything the expensive first stage produces, in reusable form.

    The two-stage split has an economic asymmetry the yield service
    (:mod:`repro.service`) exploits: the fitted proposal and the verified
    starting point cost hundreds of transistor-level simulations to build
    but are cheap to *reuse* — a repeat query with the same first-stage
    identity can skip the Gibbs stage entirely and re-run only the
    parametric second stage.  This record is the extraction/injection
    seam: :func:`fit_first_stage` produces it, and passing it back into
    :func:`gibbs_importance_sampling` (``first_stage=...``) — or its
    ``proposal`` into
    :func:`~repro.mc.importance.importance_sampling_estimate`, as the
    service runner does — consumes it with **zero** first-stage metric
    evaluations.

    Attributes
    ----------
    proposal:
        The fitted ``g_nor`` (:class:`MultivariateNormal` or
        :class:`GaussianMixture`).
    starting_point:
        The verified Algorithm-4 minimum-norm failure point.
    n_first_stage:
        Simulations the build cost (starting-point search + chains + fit).
    fit_seconds:
        Wall-clock seconds the build took — the "first-stage seconds
        saved" a cache hit reports.
    extras:
        The stage's result extras (chain, diagnostics, ...); ``lean()``
        drops the bulky chain for persistence.
    schema_version:
        Persisted-format version (see :data:`repro.mc.results.SCHEMA_VERSION`);
        loaders refuse mismatched artifacts loudly.
    """

    coordinate_system: str
    proposal: object
    starting_point: StartingPoint
    n_first_stage: int
    n_chains: int
    n_gibbs: int
    proposal_fit: str
    fit_seconds: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def method(self) -> str:
        return LABELS[self.coordinate_system]

    def lean(self) -> "FirstStageArtifact":
        """A copy holding only what reuse needs, for compact persistence.

        Keeps the proposal, the starting point (without its surrogate
        model) and the chain diagnostics, and drops the raw chain, which
        can be megabytes for long multi-chain runs and is only needed for
        trajectory plots.
        """
        extras = {
            key: value
            for key, value in self.extras.items()
            if key == "chain_diagnostics"
        }
        start = replace(self.starting_point, surrogate=None)
        return replace(self, starting_point=start, extras=extras)

    def validate(self, coordinate_system: str) -> None:
        """Fail loudly on schema or coordinate-system mismatch."""
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"first-stage artifact has schema_version "
                f"{self.schema_version}, this build persists "
                f"{SCHEMA_VERSION}; refusing to reuse a foreign format "
                f"(rebuild the artifact or clear the cache)"
            )
        if self.coordinate_system != coordinate_system:
            raise ValueError(
                f"first-stage artifact was fitted in "
                f"{self.coordinate_system!r} coordinates but the flow "
                f"requested {coordinate_system!r}"
            )


def _spread_starting_points(
    metric: Callable,
    spec: FailureSpec,
    start: StartingPoint,
    n_chains: int,
    rng: np.random.Generator,
    zeta: float,
    jitter: float,
) -> np.ndarray:
    """Verified failure-region starting points for ``n_chains`` chains.

    Chain 0 keeps the Algorithm-4 minimum-norm point; the others are
    jittered copies — pushed slightly outward along the start's ray and
    perturbed within the start's tangent plane (the noise has no component
    along ``start.x``) — each *verified to fail* before use (batched, one
    simulation per candidate, charged to the first stage like any other
    exploration cost).  Every candidate therefore lies beyond the
    hyperplane through the start perpendicular to ``start.x``, so it fails
    whenever the pass region is convex near a minimum-norm start (a
    half-space, a sphere tail); a radial noise component would pull a
    fixed share of candidates back across a flat boundary at every jitter
    scale.  Candidates that pass are retried with the jitter halved,
    pulling them back toward the verified point.  If the attempt
    budget (4 halving rounds) runs out with chains still unplaced, that is
    a strong sign the failure region is a sliver the jitter keeps missing:
    rather than silently reusing the same start for several chains — which
    would quietly overstate the diversity the multi-chain diagnostics
    report — a :class:`ValueError` names the unplaced chains and the two
    honest ways out (shrink the jitter, or opt into duplicate starts
    explicitly with ``chain_jitter=0``).
    """
    points = np.tile(start.x, (n_chains, 1))
    need = n_chains - 1
    if need == 0 or jitter <= 0.0:
        return points
    dimension = start.x.size
    norm = float(np.linalg.norm(start.x))
    radius = max(norm, 1.0)
    normal = start.x / norm if norm > 0.0 else np.zeros(dimension)
    pending = np.arange(1, n_chains)
    scale = float(jitter)
    for _ in range(4):
        if pending.size == 0:
            break
        outward = 1.0 + scale * rng.random((pending.size, 1))
        noise = scale * radius * rng.standard_normal((pending.size, dimension))
        noise -= np.outer(noise @ normal, normal)
        candidates = np.clip(start.x * outward + noise, -zeta, zeta)
        failing = np.asarray(spec.indicator(metric(candidates)), dtype=bool)
        points[pending[failing]] = candidates[failing]
        pending = pending[~failing]
        scale *= 0.5
    if pending.size:
        raise ValueError(
            f"could not verify distinct failure-region starting points for "
            f"chains {pending.tolist()}: all jittered candidates still pass "
            f"after 4 halving rounds (chain_jitter={jitter}). The failure "
            f"region is likely much thinner than the jitter scale — lower "
            f"chain_jitter (or n_chains), or pass chain_jitter=0 to start "
            f"every chain at the one verified minimum-norm point."
        )
    return points


def run_first_stage(
    metric: Callable,
    spec: FailureSpec,
    starts: np.ndarray,
    n_gibbs: int,
    executor: ParallelExecutor,
    coordinate_system: str = "spherical",
    seed: SeedLike = None,
    chain_group_size: Optional[int] = None,
    zeta: float = 8.0,
    bisect_iters: int = 5,
    epsilon: float = 1e-2,
    ladder_width: int = 1,
    checkpoint_dir=None,
    resume: bool = True,
) -> MultiChainGibbs:
    """Fan the first-stage chains out over an executor, in chain groups.

    The shard grid partitions the ``C`` chains into contiguous groups of
    ``chain_group_size`` (default: one group per worker); each group runs
    one lockstep ``run_lockstep`` call in a :func:`run_gibbs_shard` worker.
    Determinism is *stronger* than the grid-pinned contract of the sampled
    stages: chain ``i`` always draws from the child stream at spawn index
    ``i``, chains never share a stream, and the bisection searches between
    draws are RNG-free — so the merged chain is bit-identical for **any**
    group size, worker count and backend, and equals one direct
    ``run_lockstep(chain_rngs=...)`` call over all chains.  Group size is
    therefore a pure performance knob.

    ``starts`` must already be verified failure points (see
    ``_spread_starting_points``); workers skip re-verification, so the
    chains cost the same simulations whatever the grouping.

    Parameters
    ----------
    seed:
        Seed-like source of the per-chain streams.  Passing the flow's
        generator draws one integer from it (see ``as_seed_sequence``), so
        the chain streams are pinned by the flow's seed exactly once,
        before any grouping decision.
    checkpoint_dir:
        Persist every completed chain-group shard to an append-only
        ledger (``repro-ledger-v1``) keyed by the full first-stage
        configuration, including the *grid* (``chain_group_size``); a
        killed run re-invoked with the same inputs replays the persisted
        groups and re-runs only the missing ones, bit-identically.
    resume:
        With ``checkpoint_dir``: replay an existing matching ledger
        (default); ``False`` truncates it first.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n_chains, dimension = starts.shape
    if chain_group_size is None:
        chain_group_size = -(-n_chains // executor.n_workers)
    root = as_seed_sequence(seed)
    chain_seeds = spawn_seed_sequences(root, n_chains)
    shards = plan_shards(n_chains, int(chain_group_size))
    tasks = []
    for shard in shards:
        lo, hi = shard.offset, shard.offset + shard.count
        tasks.append(
            GibbsShardTask(
                shard=shard,
                chain_seeds=chain_seeds[lo:hi],
                metric=metric,
                spec=spec,
                dimension=dimension,
                coordinate_system=coordinate_system,
                starts=starts[lo:hi],
                n_gibbs=int(n_gibbs),
                zeta=zeta,
                bisect_iters=bisect_iters,
                epsilon=epsilon,
                sampler_options={"ladder_width": int(ladder_width)},
                telemetry=_telemetry.ship_to_workers(executor),
            )
        )
    ledger = None
    replayed = []
    if checkpoint_dir is not None:
        starts_digest = hashlib.sha256(
            np.ascontiguousarray(starts).tobytes()
        ).hexdigest()
        ledger = open_ledger(
            checkpoint_dir,
            "gibbs",
            {
                "n_chains": int(n_chains),
                "chain_group_size": int(chain_group_size),
                "n_gibbs": int(n_gibbs),
                "coordinate_system": str(coordinate_system),
                "dimension": int(dimension),
                "zeta": float(zeta),
                "bisect_iters": int(bisect_iters),
                "epsilon": float(epsilon),
                "ladder_width": int(ladder_width),
                "starts": starts_digest,
                "metric": metric_fingerprint(metric, spec),
                "seed": seed_key(root),
            },
            resume=resume,
        )
        replayed, tasks = ledger.split(tasks)
    try:
        results = executor.map(
            run_gibbs_shard,
            tasks,
            on_result=ledger.record if ledger is not None else None,
        )
        fold_external_counts(metric, executor, results)
        if ledger is not None:
            _telemetry.fold_replayed_records(ledger.replayed_telemetry())
    finally:
        if ledger is not None:
            ledger.close()
    return merge_chain_shards(replayed + results, n_chains)


def _build_first_stage(
    counted: CountedMetric,
    spec: FailureSpec,
    dimension: int,
    rng: np.random.Generator,
    pool: ParallelExecutor,
    coordinate_system: str,
    n_gibbs: int,
    n_chains: int,
    chain_jitter: float,
    start: Optional[StartingPoint],
    doe_budget: Optional[int],
    surrogate_order: str,
    epsilon: float,
    zeta: float,
    bisect_iters: int,
    ladder_width: int,
    proposal_fit: str,
    mixture_components: int,
    chain_group_size: Optional[int],
    checkpoint_dir=None,
    resume: bool = True,
) -> FirstStageArtifact:
    """Run the complete first stage and package it as a reusable artifact.

    This is the one implementation of Algorithm 5 steps 1-4, shared by the
    full flow and the standalone :func:`fit_first_stage` extraction path,
    so the two consume the ``rng`` stream identically draw for draw.
    """
    t0 = time.perf_counter()
    stage1_start = counted.checkpoint()
    # The span covers everything the paper charges to stage 1: the
    # starting-point search, the chains, the proposal fit and the
    # mixing diagnostics.  Its ``sims`` counter is the same
    # checkpoint delta the result reports as ``n_first_stage``.
    with _telemetry.span(
        "gibbs.first_stage",
        coordinate_system=coordinate_system,
        n_chains=int(n_chains),
        n_gibbs=int(n_gibbs),
    ) as stage_span:
        if start is None:
            start = find_starting_point(
                counted, spec, dimension, rng,
                doe_budget=doe_budget, order=surrogate_order,
                epsilon=epsilon, zeta=zeta,
            )

        if n_chains == 1:
            if coordinate_system == "cartesian":
                sampler = CartesianGibbs(
                    counted, spec, dimension, zeta=zeta,
                    bisect_iters=bisect_iters,
                    ladder_width=ladder_width,
                )
                chain = sampler.run_lockstep(start.x, n_gibbs, [rng])
            else:
                sampler = SphericalGibbs(
                    counted, spec, dimension, zeta=zeta,
                    bisect_iters=bisect_iters,
                    ladder_width=ladder_width,
                )
                chain = sampler.run_lockstep(
                    start.r, start.alpha, n_gibbs, [rng]
                )
        else:
            starts_x = _spread_starting_points(
                counted, spec, start, n_chains, rng, zeta, chain_jitter
            )
            chain = run_first_stage(
                counted, spec, starts_x, n_gibbs, pool,
                coordinate_system=coordinate_system,
                seed=rng,
                chain_group_size=chain_group_size,
                zeta=zeta, bisect_iters=bisect_iters, epsilon=epsilon,
                ladder_width=ladder_width,
                checkpoint_dir=checkpoint_dir, resume=resume,
            )

        if proposal_fit == "normal":
            proposal = MultivariateNormal.fit(chain.pooled_samples)
        elif proposal_fit == "mixture":
            proposal = GaussianMixture.fit(
                chain.pooled_samples, n_components=mixture_components,
                rng=rng,
            )
        else:
            raise ValueError(
                f"proposal_fit must be 'normal' or 'mixture', "
                f"got {proposal_fit!r}"
            )

        extras = {"chain": chain, "starting_point": start}
        # Split R-hat needs at least 4 samples per chain; for shorter
        # (toy) runs the estimate is still valid, only the diagnostics
        # are skipped.
        if n_chains > 1 and n_gibbs >= 4:
            diagnostics = diagnose_chains(chain)
            extras["chain_diagnostics"] = diagnostics
            _telemetry.gauge("chain.max_rhat", diagnostics.max_rhat)
            _telemetry.gauge("chain.min_ess", diagnostics.min_ess)

        n_first_stage = counted.checkpoint() - stage1_start
        stage_span.add("sims", n_first_stage)
    return FirstStageArtifact(
        coordinate_system=coordinate_system,
        proposal=proposal,
        starting_point=start,
        n_first_stage=int(n_first_stage),
        n_chains=int(n_chains),
        n_gibbs=int(n_gibbs),
        proposal_fit=proposal_fit,
        fit_seconds=time.perf_counter() - t0,
        extras=extras,
    )


def gibbs_importance_sampling(
    metric: Callable,
    spec: FailureSpec,
    dimension: Optional[int] = None,
    coordinate_system: str = "spherical",
    n_gibbs: int = 400,
    n_chains: int = 1,
    chain_jitter: float = 0.25,
    n_second_stage: int = 5000,
    rng: SeedLike = None,
    start: Optional[StartingPoint] = None,
    doe_budget: Optional[int] = None,
    surrogate_order: str = "quadratic",
    epsilon: float = 1e-2,
    zeta: float = 8.0,
    bisect_iters: int = 5,
    ladder_width: int = 1,
    proposal_fit: str = "normal",
    mixture_components: int = 3,
    store_samples: bool = False,
    n_workers: Optional[int] = None,
    backend: str = "process",
    chain_group_size: Optional[int] = None,
    shard_size: int = 8192,
    first_stage: Optional[FirstStageArtifact] = None,
    executor: Optional[ParallelExecutor] = None,
    checkpoint_dir=None,
    resume: bool = True,
) -> EstimationResult:
    """Run the full G-C / G-S failure-rate prediction flow.

    Parameters
    ----------
    coordinate_system:
        ``"cartesian"`` (Algorithm 1) or ``"spherical"`` (Algorithm 2).
    n_gibbs:
        K — first-stage Gibbs samples *per chain* (the paper uses 1e2..1e3).
    n_chains:
        C — lockstep chains advanced synchronously in the first stage.
        The default 1 reproduces the paper's single-chain flow exactly;
        larger values pool ``C * K`` samples for the ``g_nor`` fit while
        issuing each bisection step as one batched metric call, which is
        dramatically faster on a vectorised simulator and explores
        non-convex failure regions from several footholds at once.
    chain_jitter:
        Relative magnitude of the starting-point jitter for chains beyond
        the first (see ``_spread_starting_points``); 0 starts every chain
        at the same minimum-norm point.
    n_second_stage:
        N — parametric importance-sampling draws (1e3..1e4).
    ladder_width:
        Interval-search ladder width ``k`` for the first-stage samplers
        (see :func:`repro.gibbs.bounds.batched_failure_interval`): the
        default ``1`` is classic bisection and bit-identical to previous
        releases; ``k > 1`` evaluates a ``k``-point grid per bracket side
        per round, cutting the number of *sequential* metric calls per
        Gibbs update at the price of more simulations.
    start:
        Reuse a precomputed starting point (its simulations are then *not*
        included in this result's accounting).
    proposal_fit:
        ``"normal"`` for Algorithm 5's multivariate Normal, or
        ``"mixture"`` for the Gaussian-mixture extension.
    store_samples:
        Keep second-stage samples and pass/fail labels in ``extras`` for
        the scatter-plot reproductions.
    n_workers:
        How many shards of *both* stages run at once on ``backend``;
        ``None`` (default) runs them inline.  The second stage is always
        the grid of ``shard_size``-sample shards (see
        :func:`repro.mc.importance.importance_sampling_estimate`); with
        ``n_chains > 1`` the first stage runs chain groups (see
        :func:`run_first_stage`), each chain on its own spawn-indexed
        stream, so the merged chain and the estimate are bit-identical for
        every worker count, backend and group size.  A single persistent
        pool serves both stages.
    chain_group_size:
        Chains per first-stage task.  ``None`` splits the chains evenly
        over the workers; an integer pins the group size.  Pure
        performance knob — results never depend on it.
    shard_size:
        Second-stage samples per shard.  Unlike the chain grouping, this
        value *does* select which stream draws which sample.
    first_stage:
        Inject a prebuilt :class:`FirstStageArtifact` (from
        :func:`fit_first_stage` or a previous run's extraction) instead of
        running the first stage: the flow then performs **zero**
        first-stage metric evaluations, reports ``n_first_stage=0`` (the
        artifact's build cost was paid by whoever built it), and draws the
        second stage from the artifact's stored proposal.  The artifact's
        schema version and coordinate system are validated loudly.
    executor:
        Prebuilt :class:`~repro.parallel.ParallelExecutor` (e.g. the yield
        service's persistent pool); overrides ``n_workers``/``backend``.
    checkpoint_dir:
        Persist completed shards to append-only ledgers in this directory
        (``repro-ledger-v1``): the first-stage chain groups (multi-chain
        runs) and the second-stage weight shards each get their own keyed
        ledger, so a killed run resumes bit-identically, paying only for
        missing shards.
    resume:
        With ``checkpoint_dir``: replay matching ledgers (default);
        ``False`` truncates them and reruns everything.

    Returns
    -------
    :class:`~repro.mc.results.EstimationResult` with method label "G-C" or
    "G-S"; ``extras`` carries the chain, the starting point and the fitted
    proposal.
    """
    if coordinate_system not in LABELS:
        raise ValueError(
            f"coordinate_system must be 'cartesian' or 'spherical', "
            f"got {coordinate_system!r}"
        )
    if n_chains < 1:
        raise ValueError(f"n_chains must be positive, got {n_chains}")
    if first_stage is not None:
        first_stage.validate(coordinate_system)
    rng = ensure_rng(rng)
    counted = metric if isinstance(metric, CountedMetric) else CountedMetric(
        metric, dimension
    )
    dimension = counted.dimension
    pool = resolve_executor(executor, n_workers, backend)

    # One persistent pool serves the first-stage chain groups and the
    # second-stage shards; inline executors make this a no-op (see
    # ParallelExecutor.__enter__).
    with pool:
        if first_stage is not None:
            proposal = first_stage.proposal
            extras = dict(first_stage.extras)
            extras["starting_point"] = first_stage.starting_point
            extras["first_stage_reused"] = True
            n_first_stage = 0
        else:
            artifact = _build_first_stage(
                counted, spec, dimension, rng, pool,
                coordinate_system=coordinate_system,
                n_gibbs=n_gibbs, n_chains=n_chains,
                chain_jitter=chain_jitter, start=start,
                doe_budget=doe_budget, surrogate_order=surrogate_order,
                epsilon=epsilon, zeta=zeta, bisect_iters=bisect_iters,
                ladder_width=ladder_width,
                proposal_fit=proposal_fit,
                mixture_components=mixture_components,
                chain_group_size=chain_group_size,
                checkpoint_dir=checkpoint_dir, resume=resume,
            )
            proposal = artifact.proposal
            extras = artifact.extras
            n_first_stage = artifact.n_first_stage
        return importance_sampling_estimate(
            counted,
            spec,
            proposal,
            n_second_stage,
            method=LABELS[coordinate_system],
            rng=rng,
            n_first_stage=n_first_stage,
            store_samples=store_samples,
            extras=extras,
            executor=pool,
            shard_size=shard_size,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )


def fit_first_stage(
    metric: Callable,
    spec: FailureSpec,
    dimension: Optional[int] = None,
    coordinate_system: str = "spherical",
    n_gibbs: int = 400,
    n_chains: int = 1,
    chain_jitter: float = 0.25,
    rng: SeedLike = None,
    start: Optional[StartingPoint] = None,
    doe_budget: Optional[int] = None,
    surrogate_order: str = "quadratic",
    epsilon: float = 1e-2,
    zeta: float = 8.0,
    bisect_iters: int = 5,
    ladder_width: int = 1,
    proposal_fit: str = "normal",
    mixture_components: int = 3,
    n_workers: Optional[int] = None,
    backend: str = "process",
    chain_group_size: Optional[int] = None,
    executor: Optional[ParallelExecutor] = None,
    checkpoint_dir=None,
    resume: bool = True,
) -> FirstStageArtifact:
    """Run only the expensive first stage and return its reusable artifact.

    The extraction half of the artifact seam: everything
    :func:`gibbs_importance_sampling` would charge to stage 1 — the
    starting-point search, the Gibbs chain(s), the ``g_nor`` fit — runs
    here with the identical draw order, and comes back as a
    :class:`FirstStageArtifact` ready for persistence and injection.
    The yield service's proposal cache stores exactly this object (in
    ``lean()`` form), so a repeat query pays none of it again.

    Parameters mirror :func:`gibbs_importance_sampling`'s first-stage
    subset; ``executor`` reuses a caller-owned worker pool (the service
    keeps one persistent pool across all jobs).
    """
    if coordinate_system not in LABELS:
        raise ValueError(
            f"coordinate_system must be 'cartesian' or 'spherical', "
            f"got {coordinate_system!r}"
        )
    if n_chains < 1:
        raise ValueError(f"n_chains must be positive, got {n_chains}")
    rng = ensure_rng(rng)
    counted = metric if isinstance(metric, CountedMetric) else CountedMetric(
        metric, dimension
    )
    dimension = counted.dimension
    pool = resolve_executor(executor, n_workers, backend)
    with pool:
        return _build_first_stage(
            counted, spec, dimension, rng, pool,
            coordinate_system=coordinate_system,
            n_gibbs=n_gibbs, n_chains=n_chains,
            chain_jitter=chain_jitter, start=start,
            doe_budget=doe_budget, surrogate_order=surrogate_order,
            epsilon=epsilon, zeta=zeta, bisect_iters=bisect_iters,
            ladder_width=ladder_width,
            proposal_fit=proposal_fit,
            mixture_components=mixture_components,
            chain_group_size=chain_group_size,
            checkpoint_dir=checkpoint_dir, resume=resume,
        )
