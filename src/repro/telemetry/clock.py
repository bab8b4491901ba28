"""The one monotonic time source behind every telemetry measurement.

Span durations and the trace exporters all read the same clock, so a
test that installs a fake timer sees *consistent* fake time everywhere —
span durations and trace timestamps move together.

The default is :func:`time.perf_counter`: on every platform we target it
is a system-wide monotonic clock, so timestamps taken in worker processes
are directly comparable with the parent's (which is what lets the Chrome
trace exporter lay worker shard spans on the same time axis).

Nothing here touches an RNG: swapping or faking the clock can never change
a sampling result, only what the telemetry layer reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Optional

#: Signature of a telemetry timer: no arguments, returns seconds.
Timer = Callable[[], float]

_timer: Timer = time.perf_counter


def get_timer() -> Timer:
    """The currently installed timer callable (shared, process-local)."""
    return _timer


def now() -> float:
    """Current time from the shared telemetry clock, in seconds."""
    return _timer()


def set_timer(timer: Optional[Timer]) -> Timer:
    """Install ``timer`` as the shared source; ``None`` restores the default.

    Returns the previously installed timer so callers can restore it —
    prefer :func:`use_timer` which does that automatically.
    """
    global _timer
    previous = _timer
    _timer = time.perf_counter if timer is None else timer
    return previous


@contextmanager
def use_timer(timer: Timer):
    """Temporarily install ``timer`` as the shared clock (tests)."""
    previous = set_timer(timer)
    try:
        yield timer
    finally:
        set_timer(previous)
