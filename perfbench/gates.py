"""Correctness gates and the ``error_rate`` accounting behind them.

A *unit* is one run or one job.  It counts as failed when it raises or
when any of its gates fails; ``error_rate`` is failed units over
attempted units.  Exact-count mismatches between repetitions of the same
seeded job are reported separately, as nondeterminism faults.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

#: Two-sided 99% normal quantile: the estimators report their relative
#: error as the 99% CI half-width over the estimate.
Z99 = 2.5758293035489004

#: Two-sided 1e-5 normal quantile.  The reference check tests the
#: difference between estimate and reference at this level, not at 99%:
#: a 99% gate would fail one correct run in a hundred, and the benchmark
#: repeats every workload over many seeds.  A biased estimator (a
#: proposal that misses an arm of the failure region) still fails it.
Z_GATE = 4.4171734134667

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference(problem: str) -> dict:
    """Recorded reference ``{"p_ref", "rel_err_99", ...}`` for ``problem``."""
    return json.loads(REFERENCE_PATH.read_text())[problem]


def reference_check(
    estimate: float, rel_err_99: float, reference: dict
) -> Tuple[bool, float, float]:
    """Is ``estimate`` consistent with the recorded reference?

    Returns ``(ok, |ln(estimate / p_ref)|, tolerance)``.  The tolerance
    combines the estimate's own CI with the reference's, both converted
    from 99% half-widths to standard errors, and scales them to
    :data:`Z_GATE`.
    """
    p_ref = float(reference["p_ref"])
    if not (estimate > 0 and math.isfinite(estimate) and math.isfinite(rel_err_99)):
        return False, math.inf, 0.0
    log_err = abs(math.log(estimate / p_ref))
    sigma = math.hypot(rel_err_99, float(reference["rel_err_99"])) / Z99
    tolerance = Z_GATE * sigma
    return log_err <= tolerance, log_err, tolerance


class Unit:
    """The gates of one run or job."""

    def __init__(self):
        self.failures: List[str] = []

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return bool(ok)

    def require_reference(
        self, estimate: float, rel_err_99: float, reference: dict
    ) -> float:
        """Gate ``estimate`` on :func:`reference_check`; returns its log error."""
        ok, log_err, tol = reference_check(estimate, rel_err_99, reference)
        self.require(
            ok,
            f"estimate {estimate:.4e} is |ln ratio| {log_err:.4f} from the "
            f"reference {reference['p_ref']:.4e} (tolerance {tol:.4f})",
        )
        return log_err


class Tally:
    """Attempted and failed units, nondeterminism, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Faults of the measurement itself rather than of one unit:
        #: nondeterministic exact counts, a waterfall that does not close.
        self.faults: List[str] = []

    @contextlib.contextmanager
    def unit(self, label: str):
        """Gate one unit; an exception inside fails it and is swallowed."""
        unit = Unit()
        self.attempted += 1
        try:
            yield unit
        except Exception as exc:  # the benchmark must report, not die
            unit.failures.append(f"raised {type(exc).__name__}: {exc}")
        if unit.failures:
            self.failed += 1
            self.problems.extend(f"{label}: {why}" for why in unit.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.faults

    def check_repeats(self, label: str, counts: List[Dict[str, float]]) -> None:
        """Every repetition of one seeded job must give the same exact counts.

        Keys present in only some repetitions (traced-only counts) are
        compared among the repetitions that have them.
        """
        seen: Dict[str, Tuple[int, float]] = {}
        for index, record in enumerate(counts, start=1):
            for key, value in sorted(record.items()):
                if key not in seen:
                    seen[key] = (index, value)
                elif seen[key][1] != value:
                    self.faults.append(
                        f"nondeterminism in {label}: {key} was {seen[key][1]} "
                        f"in repetition {seen[key][0]} but {value} in "
                        f"repetition {index}"
                    )
