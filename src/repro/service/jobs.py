"""Job records: what a yield-estimation request is and how it moves.

A :class:`JobRequest` is the wire-level unit of work — problem, spec
override, technology corner, variation model, method, seed and budgets —
deliberately restricted to JSON-able scalars so the same object travels
through the HTTP front end, the batch files and the cache key untouched.
A :class:`Job` is the scheduler's bookkeeping around one request:
lifecycle state, timestamps, the result and the telemetry manifest.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.experiments import METHODS
from repro.sram.corners import CORNERS

#: Valid method labels a job may request.
JOB_METHODS = METHODS + ("MC",)

#: Built-in problem identifiers (see :mod:`repro.sram.problems`).
JOB_PROBLEMS = ("rnm", "wnm", "iread", "twrite")

#: Inclusive ``(low, high)`` ranges of a request's integer budgets.  The
#: upper bounds sit far above any benchmark or CI request; they keep a typo
#: from queueing a job that would run for days or exhaust memory.  Past
#: ~52 halvings a ``[-zeta, zeta]`` bracket is at float64 spacing, so each
#: further bisection round pays two simulations for nothing, and fewer than
#: one round leaves every interval search frozen at its bracket.
BUDGET_RANGES = {
    "n_second_stage": (2, 100_000_000),
    "n_gibbs": (1, 100_000),
    "n_chains": (1, 1024),
    "shard_size": (1, 1 << 20),
    "ladder_width": (1, 64),
    "bisect_iters": (1, 52),
}


class JobState:
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)


class JobCancelled(Exception):
    """Raised inside a runner when its job is cancelled or times out."""


@dataclass
class JobRequest:
    """One yield-estimation query.

    Attributes
    ----------
    problem:
        Built-in problem id ("rnm", "wnm", "iread", "twrite").
    method:
        Estimator label ("G-S", "G-C", "MIS", "MNIS", "MC").
    corner:
        Global process corner ("TT", "FF", "SS", "FS", "SF"); non-nominal
        corners shift the problem cell's technology by ``sigma_global``
        per :func:`repro.sram.corners.corner_technology`.
    sigma_global:
        Die-to-die threshold sigma (V) of the variation model.
    threshold:
        Failure-spec threshold override; ``None`` keeps the problem's
        calibrated default.
    seed:
        Master seed.  The first stage draws from ``default_rng(seed)``;
        the second stage draws from a fixed tagged child stream (see
        :func:`repro.service.runner.second_stage_seed`), so refinement
        can extend the shard grid without re-running the first stage.
    n_second_stage:
        Second-stage budget N — a *floor*: a cached result covering at
        least this many samples is returned outright.  This is the one
        knob excluded from the cache key (it is refinable).
    shard_size:
        Second-stage samples per shard.  Part of the stored result's and
        the shard ledgers' identity, not of the cache key: a mismatched
        grid re-runs only the second stage.
    timeout:
        Per-job wall-clock limit in seconds (``None``: the service
        default); expiry cancels the job at the next shard boundary.
    use_cache:
        ``False`` forces a cold run (the result still lands in the cache).
    """

    problem: str = "iread"
    method: str = "G-S"
    corner: str = "TT"
    sigma_global: float = 0.03
    threshold: Optional[float] = None
    seed: int = 0
    n_second_stage: int = 5000
    n_gibbs: int = 300
    n_chains: int = 1
    chain_jitter: float = 0.25
    doe_budget: Optional[int] = None
    n_exploration: int = 5000
    proposal_fit: str = "normal"
    surrogate_order: str = "quadratic"
    epsilon: float = 1e-2
    zeta: float = 8.0
    bisect_iters: int = 5
    ladder_width: int = 1
    shard_size: int = 1024
    timeout: Optional[float] = None
    use_cache: bool = True

    def validate(self) -> None:
        """Reject malformed requests loudly, before any simulation runs."""
        if self.problem not in JOB_PROBLEMS:
            raise ValueError(
                f"unknown problem {self.problem!r}; "
                f"choose from {sorted(JOB_PROBLEMS)}"
            )
        if self.method not in JOB_METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; "
                f"choose from {sorted(JOB_METHODS)}"
            )
        # The runner reads the corner case-insensitively.
        if str(self.corner).upper() not in CORNERS:
            raise ValueError(
                f"unknown corner {self.corner!r}; choose from {sorted(CORNERS)}"
            )
        for name, choices in (("proposal_fit", ("normal", "mixture")),
                              ("surrogate_order", ("linear", "quadratic"))):
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"unknown {name} {getattr(self, name)!r}; "
                    f"choose from {sorted(choices)}"
                )
        # JSON bodies may carry NaN/Infinity, which slip past every range
        # check below (``nan <= 0`` is False) and would disable the timeout.
        for name in ("sigma_global", "threshold", "chain_jitter", "epsilon",
                     "zeta", "timeout"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.sigma_global < 0:
            raise ValueError(
                f"sigma_global must be >= 0, got {self.sigma_global}"
            )
        for name, (low, high) in BUDGET_RANGES.items():
            value = getattr(self, name)
            if not low <= value <= high:
                raise ValueError(
                    f"{name} must be in [{low}, {high}], got {value!r}"
                )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRequest":
        """Build a request from a JSON payload, rejecting unknown keys.

        Unknown keys fail loudly: a typo like ``"n_gibs"`` silently
        falling back to the default would hash to a *different* logical
        job than the user asked for.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown job fields {sorted(unknown)}; "
                f"valid fields: {sorted(known)}"
            )
        request = cls(**payload)
        request.validate()
        return request


@dataclass
class Job:
    """Scheduler bookkeeping around one request."""

    id: str
    request: JobRequest
    state: str = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result: Optional[object] = None
    manifest: Optional[Dict[str, object]] = None

    def status(self) -> dict:
        """JSON-able snapshot for the HTTP API and the CLI listing."""
        payload = {
            "id": self.id,
            "state": self.state,
            "request": self.request.to_dict(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if self.result is not None:
            payload["result"] = {
                "method": self.result.method,
                "failure_probability": self.result.failure_probability,
                "relative_error": self.result.relative_error,
                "n_first_stage": self.result.n_first_stage,
                "n_second_stage": self.result.n_second_stage,
                "n_total": self.result.n_total,
            }
        if self.manifest is not None:
            payload["job"] = self.manifest.get("job")
        return payload
