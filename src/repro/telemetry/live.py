"""The live view a :class:`~repro.telemetry.Recorder` keeps of its run.

``/metrics``, ``/status``, ``GET /jobs`` and ``repro top`` answer "how is
the run doing *right now*": shard progress and ETA per stage, live
throughput, a streaming convergence readout of the running estimate, the
first stage's chain diagnostics and, on the socket backend, fleet health.
The recorder feeds this view from its own event stream, so every
instrumented site makes telemetry calls only:

* a **stage span** (see :data:`STAGES`) starting or finishing marks its
  stage running or done;
* a ``parallel.map`` span starting plans ``tasks`` shards for the stage
  whose runner its ``fn`` names;
* a ``service.job`` span scopes everything its thread reports to its
  ``job`` attribute, so the service's concurrent jobs keep separate
  tallies (shard completions fire in the mapping thread on every
  backend, so they inherit the scope);
* a :func:`~repro.telemetry.shard_results` event credits completed or
  ledger-replayed shards and folds their weights into the running
  estimate;
* the ``chain.max_rhat`` / ``chain.min_ess`` gauges are the chain
  diagnostics of the scope that set them.

The view only reads shard results after they exist — it never touches an
RNG stream, task content or merge order — so estimates are bit-identical
with a recorder active or not.  Tallies only grow and totals only
``max()``, so the completion fraction is monotone even when remote
completions land out of order.  Every method runs under the owning
recorder's lock and reads the recorder's clock.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.stats.confidence import Z_99

#: The one stage table: each sampling stage's exported label, the span
#: that marks it, the shard runner its ``parallel.map`` runs and the
#: ledger kind its persisted rows carry.  The last row is the method
#: panel of ``compare_methods`` and ``run_trials``: each of its tasks
#: runs a whole estimator, whose estimate is its second stage (Table I
#: counts MC's samples there too), so a panel map reports its tasks as
#: second-stage shards.  On a process pool that is the only progress the
#: run's view gets, because the methods' own stages run in the workers;
#: inline or on threads their stages report too, beside the panel's.
STAGES = (
    ("first_stage", "gibbs.first_stage", "run_gibbs_shard", "gibbs"),
    ("second_stage", "second_stage", "run_is_shard", "is"),
    ("mc", "mc.run", "run_mc_shard", "mc"),
    ("blockade", "blockade.screen", "run_blockade_shard", "blockade"),
    ("second_stage", None, "_run_method_task", None),
)

#: Stage span, shard runner or ledger kind -> the stage it reports
#: under.  Anything else is not a sampling stage and stays out of the
#: view.
STAGE_OF = {name: row[0] for row in STAGES for name in row[1:] if name}

#: Span names the view reacts to; every other span skips it entirely.
SPANS = frozenset(
    ["service.job", "parallel.map"] + [r[1] for r in STAGES if r[1]]
)

#: Chain-diagnostic gauges -> their key in the per-scope chain record.
_CHAIN_GAUGES = {"chain.max_rhat": "max_rhat", "chain.min_ess": "min_ess"}

#: Time constant (seconds) of the sims/sec moving average.
_EWMA_TAU_S = 5.0


class _StageState:
    """Mutable tallies for one ``(scope, stage)`` pair."""

    __slots__ = (
        "scope",
        "stage",
        "shards_total",
        "shards_done",
        "shards_replayed",
        "sims_live",
        "sims_replayed",
        "started_at",
        "finished_at",
        "active",
        "conv_n",
        "conv_sum",
        "conv_sumsq",
    )

    def __init__(self, scope: str, stage: str):
        self.scope = scope
        self.stage = stage
        self.shards_total = 0
        self.shards_done = 0
        self.shards_replayed = 0
        self.sims_live = 0
        self.sims_replayed = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.active = False
        # Running first/second moments of the per-sample weight stream
        # (failure indicators count as 0/1 weights), enough for the
        # streaming estimate, its 99%-CI relative error and CoV.
        self.conv_n = 0
        self.conv_sum = 0.0
        self.conv_sumsq = 0.0

    def feed(self, result) -> None:
        """Fold a shard result into the running-estimate moments."""
        weights = getattr(result, "weights", None)
        if weights is not None:
            self.conv_n += int(weights.size)
            self.conv_sum += float(weights.sum())
            self.conv_sumsq += float((weights * weights).sum())
            return
        n_failures = getattr(result, "n_failures", None)
        count = getattr(result, "count", None)
        if n_failures is not None and count is not None:
            # Failure indicators are 0/1 weights: sum == sumsq == failures.
            self.conv_n += int(count)
            self.conv_sum += float(n_failures)
            self.conv_sumsq += float(n_failures)

    def convergence(self) -> Optional[dict]:
        if self.conv_n < 2 or self.conv_sum <= 0.0:
            return None
        n = self.conv_n
        mean = self.conv_sum / n
        var = max(self.conv_sumsq / n - mean * mean, 0.0) * n / (n - 1)
        sem = math.sqrt(var / n)
        return {
            "n": n,
            "estimate": mean,
            "relative_error": Z_99 * sem / mean,
            "cov": math.sqrt(var) / mean,
        }

    def snapshot(self, now: float, rate: float) -> dict:
        done = self.shards_done + self.shards_replayed
        remaining = max(self.shards_total - done, 0)
        eta = None
        if remaining == 0 and self.shards_total > 0:
            eta = 0.0
        elif self.shards_done > 0 and rate > 0.0:
            eta = remaining * (self.sims_live / self.shards_done) / rate
        elapsed = None
        if self.started_at is not None:
            end = self.finished_at if self.finished_at is not None else now
            elapsed = max(end - self.started_at, 0.0)
        return {
            "scope": self.scope,
            "stage": self.stage,
            "active": self.active,
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "shards_replayed": self.shards_replayed,
            "sims_live": self.sims_live,
            "sims_replayed": self.sims_replayed,
            "fraction": (
                min(done / self.shards_total, 1.0)
                if self.shards_total > 0 else 0.0
            ),
            "eta_s": eta,
            "elapsed_s": elapsed,
            "convergence": self.convergence(),
        }


class LiveView:
    """Stage tallies, throughput, convergence and chain diagnostics.

    Owned by a :class:`~repro.telemetry.Recorder`, which calls these
    methods under its lock; ``now`` is the recorder's clock.
    """

    def __init__(self, now: Callable[[], float], t0: float):
        self._now = now
        self._t0 = t0
        self._tls = threading.local()
        self._stages: Dict[Tuple[str, str], _StageState] = {}
        self._chain: Dict[str, Dict[str, float]] = {}
        self._rate = 0.0
        self._rate_t: Optional[float] = None
        self._accum_sims = 0

    # ------------------------------------------------------------ scope
    def _jobs(self) -> List[str]:
        """This thread's open ``service.job`` scopes, innermost last."""
        jobs = getattr(self._tls, "jobs", None)
        if jobs is None:
            jobs = self._tls.jobs = []
        return jobs

    def _scope(self) -> str:
        jobs = self._jobs()
        return jobs[-1] if jobs else ""

    def _state(self, stage: str) -> _StageState:
        key = (self._scope(), stage)
        state = self._stages.get(key)
        if state is None:
            state = self._stages[key] = _StageState(*key)
        return state

    # ----------------------------------------------------------- events
    def span_started(self, span) -> None:
        if span.name == "service.job":
            self._jobs().append(str(span.attrs.get("job") or ""))
            return
        n_tasks = 0
        if span.name == "parallel.map":
            stage = STAGE_OF.get(span.attrs.get("fn"))
            n_tasks = int(span.attrs.get("tasks", 0))
        else:
            stage = STAGE_OF.get(span.name)
        if stage is None:
            return
        now = self._now()
        state = self._state(stage)
        state.active = True
        state.finished_at = None
        if state.started_at is None:
            state.started_at = now
        state.shards_total = max(
            state.shards_total,
            state.shards_done + state.shards_replayed + n_tasks,
        )
        if self._rate_t is None:
            self._rate_t = now

    def span_finished(self, span) -> None:
        if span.name == "service.job":
            self._jobs().pop()
        elif span.name != "parallel.map":
            state = self._state(STAGE_OF[span.name])
            state.active = False
            state.finished_at = self._now()

    def shard_results(self, source: str, results, replayed: bool) -> None:
        """Credit ``results`` to the stage of ``source``.

        Replayed shards count toward completion and the running estimate
        but never toward the live sims/sec rate: a resumed run's ETA must
        reflect the speed of the machine it is *now* on.
        """
        stage = STAGE_OF.get(source)
        if stage is None or not results:
            return
        state = self._state(stage)
        for result in results:
            n_sims = int(getattr(result, "n_sims", 0) or 0)
            if replayed:
                state.shards_replayed += 1
                state.sims_replayed += n_sims
            else:
                state.shards_done += 1
                state.sims_live += n_sims
                self._update_rate(n_sims)
            state.feed(result)
        state.shards_total = max(
            state.shards_total, state.shards_done + state.shards_replayed
        )

    def gauge(self, name: str, value) -> None:
        key = _CHAIN_GAUGES.get(name)
        if key is not None:
            self._chain.setdefault(self._scope(), {})[key] = float(value)

    def _update_rate(self, n_sims: int) -> None:
        now = self._now()
        if self._rate_t is None:
            self._rate_t = now
        self._accum_sims += n_sims
        dt = now - self._rate_t
        if dt <= 0.0:
            return
        alpha = 1.0 - math.exp(-dt / _EWMA_TAU_S)
        self._rate += alpha * (self._accum_sims / dt - self._rate)
        self._accum_sims = 0
        self._rate_t = now

    # ------------------------------------------------------------- read
    def snapshot(self) -> dict:
        """Everything the view knows; the recorder adds ``fleet``."""
        now = self._now()
        return {
            "uptime_s": now - self._t0,
            "sims_per_second": self._rate,
            "stages": [
                state.snapshot(now, self._rate)
                for state in self._stages.values()
            ],
            # A scope shows once both of its gauges have arrived.
            "chain": {
                scope: dict(diag)
                for scope, diag in self._chain.items()
                if len(diag) == len(_CHAIN_GAUGES)
            },
            "fleet": None,
        }

    def job_snapshot(self, scope: str) -> List[dict]:
        """Stage snapshots for one scope (the service's per-job view)."""
        now = self._now()
        return [
            state.snapshot(now, self._rate)
            for (owner, _), state in self._stages.items()
            if owner == scope
        ]
