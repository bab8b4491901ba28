"""The benchmark's three workloads, all closed-loop from one process.

Each workload builds its inputs from the seed alone (the program gets
only the seeded request), runs one fixed job, and gates its output:

* ``gs-rnm`` — the paper's Table I flow: single-chain spherical G-S on the
  6-D read noise margin, no executor.  Latency-bound on the per-call cost
  of the SRAM simulator, the Gibbs sampler and the starting-point search;
  it bypasses the parallel, ledger and service layers.
* ``golden-iread`` — the paper's Table II golden Monte Carlo on the 2-D
  read current, sharded over a warm process pool.  Throughput-bound on
  the batched read-state kernel and the executor; it barely touches the
  Gibbs layer.
* ``service-iread`` — the yield service behind its HTTP front end, with
  an on-disk cache, ledgers, a persistent process pool and live
  observability.  Three users, each on a seed drawn from the workload
  seed, run in turn: a cold G-S job (chains fanned over the pool), warm
  repeats, a 4x budget refinement, then a cold MNIS job at the FF corner.
"""

from __future__ import annotations

import copy
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from perfbench.env import pool_workers
from perfbench.gates import Tally, load_reference
from repro import telemetry

#: Target of the Table I metric: 99%-CI relative error.
TARGET_REL_ERR = 0.05


def warm_up(metric) -> int:
    """Pool task: one small simulation, so lazy per-process set-up is paid."""
    metric(np.zeros((4, metric.dimension)))
    return os.getpid()


def start_pool(metric):
    """A process pool of :func:`pool_workers` workers, spawned and warmed."""
    from repro import ParallelExecutor

    executor = ParallelExecutor(n_workers=pool_workers(), backend="process")
    executor.__enter__()
    executor.map(warm_up, [metric] * executor.n_workers)
    return executor


@dataclass
class Outcome:
    """What one repetition of a workload's job produced."""

    sims: int = 0
    #: Exact counts that must repeat across repetitions of one seed.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Accuracy and latency figures reported as per-layer metrics.
    quality: Dict[str, float] = field(default_factory=dict)
    #: Client-side request records (service only).
    requests: List[dict] = field(default_factory=list)
    ledger_bytes: int = 0


class GsRnm:
    name = "gs-rnm"
    n_gibbs = 400
    n_second_stage = 30_000
    tiny = {"n_gibbs": 8, "n_second_stage": 400}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(seed)
        self.reference = load_reference("rnm")

    def setup(self):
        from repro import read_noise_margin_problem

        problem = read_noise_margin_problem()
        warm_up(problem.metric)
        return SimpleNamespace(problem=problem, startup_s=0.0)

    def teardown(self, state) -> None:
        pass

    def job(self, state, tally: Tally) -> Outcome:
        from repro import fit_first_stage, gibbs_importance_sampling
        from repro.analysis.experiments import sims_to_target_error

        out = Outcome()
        problem = state.problem
        with tally.unit("gs-rnm flow") as unit:
            rng = np.random.default_rng(self.seed)
            first = fit_first_stage(
                problem.metric, problem.spec, coordinate_system="spherical",
                n_gibbs=self.n_gibbs, rng=rng,
            )
            sims = int(first.n_first_stage)
            # A seed whose heavy-tailed weights keep the error above the
            # target at the end of the second stage reruns it once at twice
            # the budget (the first samples repeat).  One seed in 22 needed
            # it (reached at 42,815 samples); none missed 60,000.
            for n_second in (self.n_second_stage, 2 * self.n_second_stage):
                result = gibbs_importance_sampling(
                    problem.metric, problem.spec,
                    coordinate_system="spherical", first_stage=first,
                    n_second_stage=n_second, rng=copy.deepcopy(rng),
                )
                sims += int(result.n_second_stage)
                # Table I: second-stage samples until the running 99%-CI
                # relative error stays at the target.
                reach = sims_to_target_error({self.name: result},
                                             TARGET_REL_ERR)
                n_to_target = reach[self.name]["second_stage"]
                if n_to_target is not None:
                    break
            out.sims = sims
            out.counts = {
                "sims": sims,
                "first_stage_sims": int(first.n_first_stage),
                "second_stage_samples": n_second,
                "failures": int(result.extras.get("n_failures", -1)),
            }
            unit.require(
                n_to_target is not None,
                f"relative error {result.relative_error:.4f} does not stay at "
                f"{TARGET_REL_ERR} within {n_second} samples",
            )
            log_err = unit.require_reference(
                result.failure_probability, result.relative_error,
                self.reference,
            )
            out.quality = {
                "estimate": float(result.failure_probability),
                "rel_err_99": float(result.relative_error),
                "pf_log_err": log_err,
                "sims_to_5pct": (
                    int(first.n_first_stage) + n_to_target
                    if n_to_target is not None else 0
                ),
            }
        return out


class GoldenIread:
    name = "golden-iread"
    shard_size = 65_536
    n_samples = 48 * shard_size
    #: At P_f ~ 1.9e-5 the job expects ~60 failures; fewer than this
    #: floor means the golden run no longer observes the failure region.
    min_failures = 20
    tiny = {"shard_size": 4096, "n_samples": 4 * 4096, "min_failures": 0}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(seed)
        self.reference = load_reference("iread")

    def setup(self):
        from repro import read_current_problem

        problem = read_current_problem()
        t0 = time.perf_counter()
        executor = start_pool(problem.metric)
        return SimpleNamespace(
            problem=problem, executor=executor,
            startup_s=time.perf_counter() - t0,
        )

    def teardown(self, state) -> None:
        state.executor.close()

    def job(self, state, tally: Tally) -> Outcome:
        from repro import brute_force_monte_carlo

        out = Outcome()
        problem = state.problem
        with tally.unit("golden-iread run") as unit:
            result = brute_force_monte_carlo(
                problem.metric, problem.spec, n_samples=self.n_samples,
                rng=self.seed, executor=state.executor,
                shard_size=self.shard_size,
            )
            failures = int(result.extras["n_failures"])
            out.sims = int(result.n_second_stage)
            out.counts = {
                "sims": out.sims,
                "failures": failures,
                "shards": int(result.extras["n_shards"]),
            }
            unit.require(
                failures >= self.min_failures,
                f"only {failures} failures (floor {self.min_failures})",
            )
            log_err = unit.require_reference(
                result.failure_probability, result.relative_error,
                self.reference,
            )
            out.quality = {
                "estimate": float(result.failure_probability),
                "rel_err_99": float(result.relative_error),
                "pf_log_err": log_err,
                "failures": failures,
            }
        return out


class ServiceIread:
    name = "service-iread"
    #: Users per job, each running the request sequence on its own seed.
    #: The cost of one sequence depends on its seed (where the chains and
    #: the fitted proposal sit on the failure boundary sets the solver
    #: iterations per simulation: up to 1.6x between seeds at equal sims),
    #: so a job averages over several.
    n_users = 3
    shard_size = 1024
    n_cold = 4 * shard_size
    n_refined = 4 * n_cold
    n_gibbs = 10
    n_chains = 8
    n_warm = 2
    n_mnis = 2 * shard_size
    tiny = {"n_users": 1, "shard_size": 128, "n_cold": 256,
            "n_refined": 1024, "n_gibbs": 4, "n_chains": 2, "n_warm": 2,
            "n_mnis": 256}
    #: Server-side long poll per result request (seconds).
    poll_s = 60.0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.reference = load_reference("iread")
        self._instances = 0

    def setup(self):
        from repro import ServiceClient, YieldService, read_current_problem
        from repro.service.server import make_server

        self._instances += 1
        root = self.work_dir / f"service-{os.getpid()}-{self._instances}"
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        service = YieldService(
            cache_dir=root, n_job_workers=1,
            n_workers=pool_workers(), backend="process",
        )
        pool = service.executor
        pool.map(warm_up, [read_current_problem().metric] * pool.n_workers)
        startup_s = time.perf_counter() - t0
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}", timeout=30.0
        )
        client.health()
        return SimpleNamespace(
            root=root, service=service, server=server, thread=thread,
            client=client, startup_s=startup_s,
        )

    def teardown(self, state) -> None:
        state.server.shutdown()
        state.server.server_close()
        state.thread.join(timeout=30)
        state.service.close()
        shutil.rmtree(state.root, ignore_errors=True)

    def _request(self, state, label: str, request: dict, out: Outcome) -> dict:
        """Submit one job over HTTP and wait for its result, closed-loop."""
        from repro.service import ServiceError

        client = state.client
        t0 = time.perf_counter()
        with telemetry.span("bench.request", kind=label):
            job_id = client.submit(request)
            while True:
                try:
                    payload = client.result(job_id, wait=self.poll_s)
                    break
                except ServiceError as exc:
                    if exc.status != 409:  # 409: still running, poll again
                        raise
        roundtrip = time.perf_counter() - t0
        out.requests.append({
            "label": label,
            "id": job_id,
            "roundtrip_s": roundtrip,
            "queue_wait_s": float(payload["started_at"])
            - float(payload["submitted_at"]),
        })
        payload["roundtrip_s"] = roundtrip
        return payload

    def _estimate_ok(self, unit, payload) -> float:
        result = payload["result"]
        return unit.require_reference(
            result["failure_probability"], result["relative_error"],
            self.reference,
        )

    def user_seeds(self) -> List[int]:
        """One request seed per simulated user, all drawn from ``seed``."""
        states = np.random.SeedSequence(self.seed).generate_state(self.n_users)
        return [int(state) for state in states]

    def job(self, state, tally: Tally) -> Outcome:
        out = Outcome()
        log_errs, rel_errs, cold_s, refine_s = [], [], [], []
        for user, seed in enumerate(self.user_seeds(), start=1):
            self._sequence(state, tally, out, f"user {user}", seed,
                           log_errs, rel_errs, cold_s, refine_s)
        out.counts["sims"] = out.sims
        out.ledger_bytes = sum(
            path.stat().st_size
            for path in (state.root / "ledgers").rglob("*") if path.is_file()
        )
        # Worst accuracy over the users; median latencies.
        if log_errs:
            out.quality["pf_log_err"] = max(log_errs)
            out.quality["rel_err_99"] = max(rel_errs)
        if cold_s:
            out.quality["cold_job_s"] = statistics.median(cold_s)
        if refine_s:
            out.quality["refine_job_s"] = statistics.median(refine_s)
        return out

    def _sequence(self, state, tally, out, who, seed,
                  log_errs, rel_errs, cold_s, refine_s) -> None:
        """One user's cold G-S, warm hits, 4x refine and cold MNIS jobs."""
        # Every chain starts at the one verified minimum-norm point: with
        # the default jitter, about one seed in a hundred found no distinct
        # failing start for some chain, and its cold job failed.
        base = dict(
            problem="iread", method="G-S", seed=seed,
            n_gibbs=self.n_gibbs, n_chains=self.n_chains, chain_jitter=0.0,
            shard_size=self.shard_size,
        )

        def count(key: str, value: int) -> None:
            out.counts[key] = out.counts.get(key, 0) + int(value)

        cold = None
        with tally.unit(f"{who}: cold G-S job") as unit:
            cold = self._request(
                state, "cold", dict(base, n_second_stage=self.n_cold), out
            )
            job = cold["manifest"]["job"]
            out.sims += int(job["sims_run"])
            unit.require(job["mode"] == "cold", f"mode {job['mode']}")
            unit.require(
                job["first_stage_sims"] > 0 and job["sims_run"] > self.n_cold,
                f"cold job ran {job['sims_run']} sims",
            )
            self._estimate_ok(unit, cold)
            count("cold.sims_run", job["sims_run"])
            count("cold.first_stage_sims", job["first_stage_sims"])
            cold_s.append(cold["roundtrip_s"])

        for index in range(self.n_warm):
            with tally.unit(f"{who}: warm hit {index + 1}") as unit:
                warm = self._request(
                    state, "warm", dict(base, n_second_stage=self.n_cold), out
                )
                job = warm["manifest"]["job"]
                out.sims += int(job["sims_run"])
                unit.require(
                    job["mode"] == "cached_result" and job["sims_run"] == 0,
                    f"warm hit ran {job['sims_run']} sims in mode {job['mode']}",
                )
                unit.require(
                    cold is not None
                    and warm["result"]["failure_probability"]
                    == cold["result"]["failure_probability"],
                    "warm hit returned a different estimate",
                )

        with tally.unit(f"{who}: 4x refine job") as unit:
            refined = self._request(
                state, "refine", dict(base, n_second_stage=self.n_refined), out
            )
            job = refined["manifest"]["job"]
            out.sims += int(job["sims_run"])
            new_shards = (self.n_refined - self.n_cold) // self.shard_size
            unit.require(job["mode"] == "refined", f"mode {job['mode']}")
            unit.require(
                job["first_stage_sims"] == 0,
                f"refine ran {job['first_stage_sims']} first-stage sims",
            )
            unit.require(
                job["sims_run"] == new_shards * self.shard_size
                and job["n_second_stage"] == self.n_refined,
                f"refine ran {job['sims_run']} sims to "
                f"{job['n_second_stage']} samples; expected exactly "
                f"{new_shards} new shards",
            )
            log_errs.append(self._estimate_ok(unit, refined))
            rel_errs.append(float(refined["result"]["relative_error"]))
            count("refine.sims_run", job["sims_run"])
            refine_s.append(refined["roundtrip_s"])

        with tally.unit(f"{who}: cold MNIS job at FF") as unit:
            mnis = self._request(
                state, "mnis",
                dict(problem="iread", method="MNIS", corner="FF",
                     seed=seed, n_second_stage=self.n_mnis,
                     shard_size=self.shard_size),
                out,
            )
            job = mnis["manifest"]["job"]
            out.sims += int(job["sims_run"])
            estimate = mnis["result"]["failure_probability"]
            unit.require(job["mode"] == "cold", f"mode {job['mode']}")
            unit.require(
                job["sims_run"] > self.n_mnis,
                f"MNIS ran {job['sims_run']} sims",
            )
            unit.require(
                0 < estimate < 1 and np.isfinite(
                    mnis["result"]["relative_error"]
                ),
                f"MNIS estimate {estimate}",
            )
            count("mnis.sims_run", job["sims_run"])


def warm_process(workload) -> None:
    """Run the job once at its ``tiny`` budgets, untimed and ungated.

    Lazy imports and per-process caches that a job fills on its first run
    would otherwise slow the first timed repetition of every run.
    """
    for attr, value in workload.tiny.items():
        setattr(workload, attr, value)
    try:
        state = workload.setup()
        try:
            workload.job(state, Tally())
        finally:
            workload.teardown(state)
    finally:
        for attr in workload.tiny:
            delattr(workload, attr)


WORKLOADS = {cls.name: cls for cls in (GsRnm, GoldenIread, ServiceIread)}
