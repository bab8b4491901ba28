"""The yield service: a bounded job queue over one persistent pool.

:class:`YieldService` owns three long-lived resources: the artifact
cache, one persistent :class:`~repro.parallel.ParallelExecutor` entered
once and shared by every job (worker processes start once, not per
query), and a small thread pool of *job workers* that bounds how many
jobs simulate concurrently.  Jobs move ``queued -> running -> done /
failed / cancelled``; cancellation is cooperative (checked between stages
and after every shard) and per-job timeouts ride the same hook.

Every finished job's telemetry manifest is kept on the job record and —
when the cache directory is set — written to ``<cache>/jobs/<id>.json``
so CI and operators can audit hit rates and first-stage savings without
scraping logs.  For its whole lifetime the service keeps one telemetry
:class:`~repro.telemetry.Recorder` active: ``GET /jobs`` progress,
``/metrics`` and ``/status`` all read it.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.parallel.executor import ParallelExecutor
from repro.service.cache import ArtifactCache
from repro.service.jobs import Job, JobCancelled, JobRequest, JobState
from repro.service.runner import execute_job
from repro.telemetry import Recorder, logs
from repro.telemetry import context as _telemetry


class YieldService:
    """Accept, schedule, run and account yield-estimation jobs.

    Parameters
    ----------
    cache_dir:
        Artifact-cache root; ``None`` serves without persistence (every
        job runs cold).
    n_job_workers:
        Jobs simulating concurrently (the queue is unbounded; this is
        the concurrency bound).
    n_workers / backend:
        The persistent simulation pool every job shares.  The default
        (``1`` / ``"serial"``) runs jobs inline in their job-worker
        thread — the right call for the cheap analytic metrics here;
        pass real workers for expensive simulators.
    default_timeout:
        Per-job wall-clock limit (seconds) when the request carries
        none; ``None`` means unlimited.

    The service activates its :attr:`recorder` until :meth:`close`.
    Each job's ``service.job`` span scopes the recorder's live view by
    job id, so ``GET /jobs`` reports per-job progress and ``GET
    /metrics`` exposes the whole queue.  Recording never changes job
    results.  The recorder keeps every span and every job's stage
    tallies for the service's lifetime (docs/SERVICE.md).
    """

    def __init__(
        self,
        cache_dir: Union[None, str, Path] = None,
        n_job_workers: int = 2,
        n_workers: int = 1,
        backend: str = "serial",
        default_timeout: Optional[float] = None,
    ):
        if n_job_workers < 1:
            raise ValueError(
                f"n_job_workers must be positive, got {n_job_workers}"
            )
        self.cache = ArtifactCache(cache_dir) if cache_dir else None
        self.manifest_dir: Optional[Path] = None
        if cache_dir:
            self.manifest_dir = Path(cache_dir) / "jobs"
            self.manifest_dir.mkdir(parents=True, exist_ok=True)
        self.executor = ParallelExecutor(n_workers=n_workers, backend=backend)
        self.executor.__enter__()  # persistent pool, closed in close()
        self.default_timeout = default_timeout
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._futures: Dict[str, object] = {}
        self._cancel_events: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self._workers = ThreadPoolExecutor(
            max_workers=n_job_workers, thread_name_prefix="repro-job"
        )
        self._closed = False
        self.started_at = time.time()
        #: The service's telemetry recorder, active while it is open.
        self.recorder = Recorder(run_id="repro-service")
        self._previous_recorder = _telemetry.set_active(self.recorder)

    # ------------------------------------------------------------ submit
    def submit(self, request: Union[JobRequest, dict]) -> Job:
        """Queue one job; returns its record immediately."""
        if self._closed:
            raise RuntimeError("service is closed")
        if isinstance(request, dict):
            request = JobRequest.from_dict(request)
        else:
            request.validate()
        job = Job(
            id=uuid.uuid4().hex[:12],
            request=request,
            submitted_at=time.time(),
        )
        cancel = threading.Event()
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._cancel_events[job.id] = cancel
            self._futures[job.id] = self._workers.submit(
                self._run, job, cancel
            )
        return job

    def submit_batch(self, requests) -> List[Job]:
        """Queue a batch (e.g. a corner-sweep panel); returns the records."""
        return [self.submit(request) for request in requests]

    # --------------------------------------------------------------- run
    def _run(self, job: Job, cancel: threading.Event) -> None:
        with self._lock:
            if job.state == JobState.CANCELLED:
                return
            job.state = JobState.RUNNING
            job.started_at = time.time()
        timeout = (
            job.request.timeout
            if job.request.timeout is not None
            else self.default_timeout
        )
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )

        def should_abort() -> Optional[str]:
            if cancel.is_set():
                return "cancelled"
            if deadline is not None and time.perf_counter() > deadline:
                return f"timed out after {timeout:g}s"
            return None

        try:
            result, manifest = execute_job(
                job.request,
                cache=self.cache,
                executor=self.executor,
                should_abort=should_abort,
                job_id=job.id,
            )
        except JobCancelled as exc:
            with self._lock:
                job.state = JobState.CANCELLED
                job.error = str(exc)
                job.finished_at = time.time()
            logs.info(f"job {job.id} cancelled: {exc}")
            return
        except Exception as exc:
            with self._lock:
                job.state = JobState.FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
            logs.error(f"job {job.id} failed: {job.error}")
            return
        with self._lock:
            job.result = result
            job.manifest = manifest
            job.state = JobState.DONE
            job.finished_at = time.time()
        self._write_manifest(job)

    def _write_manifest(self, job: Job) -> None:
        if self.manifest_dir is None or job.manifest is None:
            return
        path = self.manifest_dir / f"{job.id}.json"
        path.write_text(json.dumps(job.manifest, indent=1, default=str))

    # ----------------------------------------------------------- queries
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return job

    def _with_progress(self, status: dict) -> dict:
        """Attach the live per-job stage snapshot to a status record."""
        stages = self.recorder.job_progress(status["id"])
        if stages:
            status["progress"] = stages
        return status

    def status(self, job_id: str) -> dict:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job id {job_id!r}")
            status = job.status()
        return self._with_progress(status)

    def jobs(self) -> List[dict]:
        """Status snapshots, in submission order."""
        with self._lock:
            statuses = [self._jobs[job_id].status() for job_id in self._order]
        return [self._with_progress(status) for status in statuses]

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until a job leaves the queue/running states."""
        job = self.get(job_id)
        future = self._futures.get(job_id)
        if future is not None:
            try:
                future.result(timeout=timeout)
            except TimeoutError:
                raise
            except Exception:
                pass  # recorded on the job itself
        return job

    def result(self, job_id: str, timeout: Optional[float] = None):
        """The job's :class:`EstimationResult`; raises unless it is done."""
        job = self.wait(job_id, timeout=timeout)
        if job.state != JobState.DONE:
            raise RuntimeError(
                f"job {job_id} is {job.state}"
                + (f": {job.error}" if job.error else "")
            )
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job (cooperative for running ones)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job id {job_id!r}")
            if job.state in (JobState.DONE, JobState.FAILED,
                             JobState.CANCELLED):
                return False
            event = self._cancel_events[job_id]
            event.set()
            future = self._futures.get(job_id)
            # A still-queued future can be dropped before it starts.
            if future is not None and future.cancel():
                job.state = JobState.CANCELLED
                job.error = "cancelled before start"
                job.finished_at = time.time()
        return True

    def stats(self) -> dict:
        """Service-level counters for /health and the CLI listing."""
        with self._lock:
            states: Dict[str, int] = {}
            saved_sims = 0
            saved_seconds = 0.0
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
                if job.manifest:
                    record = job.manifest.get("job", {})
                    saved_sims += int(record.get("first_stage_sims_saved", 0))
                    saved_seconds += float(
                        record.get("first_stage_seconds_saved", 0.0)
                    )
        return {
            "jobs": states,
            "total_jobs": sum(states.values()),
            "first_stage_sims_saved": saved_sims,
            "first_stage_seconds_saved": saved_seconds,
            "cache": self.cache.stats() if self.cache is not None else None,
            "uptime_seconds": time.time() - self.started_at,
        }

    # ----------------------------------------------------------- closing
    def close(self) -> None:
        """Cancel outstanding work and tear both pools down."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            for event in self._cancel_events.values():
                event.set()
        self._workers.shutdown(wait=True, cancel_futures=True)
        self.executor.close()
        if _telemetry.get_active() is self.recorder:
            _telemetry.set_active(self._previous_recorder)

    def __enter__(self) -> "YieldService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
