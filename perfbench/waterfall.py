"""Per-layer waterfall: where a traced job's wall clock and simulations went.

Input is the span list of an activated :class:`repro.telemetry.Recorder`
(worker-side spans folded home), plus the job's wall-clock window.

**Span tree.**  Within one thread, spans nest by construction, so a span's
parent is the innermost span of the same thread that contains it.  A span
that is outermost in its thread hangs under the innermost span of an
ancestor thread that contains it in time: a pool worker's shard under the
benchmark process's ``parallel.map``, a service job thread's
``service.job`` under the client's request span.  The telemetry clock is
system-wide monotonic, so worker and parent timestamps share one axis.

**Self time.**  A span's self time is its duration minus the part of it
that its children cover.  Where several spans run at once at the deepest
level (shards on two pool workers), each is charged an equal share of
that interval, so the self times of all spans plus the ``unattributed``
time outside every span add up to the wall clock exactly.

**Simulations.**  Each ``sram.evaluate`` span carries the rows it
simulated; a span's simulations are those issued inside it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Span-name prefix -> repository module (the waterfall's layers).
MODULES = {
    "sram": "sram",
    "gibbs": "gibbs",
    "bisect": "gibbs",
    "stats": "stats",
    "mc": "mc",
    "second_stage": "mc",
    "parallel": "parallel",
    "shard": "parallel",
    "merge": "parallel",
    "adaptive": "parallel",
    "ledger": "ledger",
    "service": "service",
    "bench": "bench",
}

#: The span whose ``rows`` counter is one simulation per row.
SIM_SPAN = "sram.evaluate"

_EPS = 1e-9


def module_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return MODULES.get(head, head)


def _ends(spans: Sequence[dict]) -> Tuple[np.ndarray, np.ndarray]:
    start = np.array([float(s["start"]) for s in spans])
    dur = np.array([float(s["dur"]) for s in spans])
    return start, start + dur


def build_tree(spans: Sequence[dict], main: Tuple[int, int]) -> List[int]:
    """Parent index of every span (``-1`` for a root); see module docstring.

    ``main`` is the ``(pid, tid)`` of the thread that drove the job: its
    outermost spans are the roots, and every other thread hangs below it.
    """
    n = len(spans)
    parent = [-1] * n
    if n == 0:
        return parent
    start, end = _ends(spans)
    pid = np.array([int(s["pid"]) for s in spans])
    tid = np.array([int(s["tid"]) for s in spans])

    threads: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for i in range(n):
        threads[(int(pid[i]), int(tid[i]))].append(i)
    thread_roots = []
    for members in threads.values():
        members.sort(key=lambda i: (start[i], -end[i]))
        stack: List[int] = []
        for i in members:
            while stack and not (
                start[stack[-1]] <= start[i] + _EPS
                and end[i] <= end[stack[-1]] + _EPS
            ):
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            else:
                thread_roots.append(i)
            stack.append(i)

    main_pid, main_tid = main
    duration = end - start
    for i in thread_roots:
        if pid[i] != main_pid:
            allowed = pid == main_pid
        elif tid[i] != main_tid:
            allowed = (pid == main_pid) & (tid != tid[i])
        else:
            continue
        holds = (
            allowed
            & (start <= start[i] + _EPS)
            & (end[i] <= end + _EPS)
        )
        holds[i] = False
        candidates = np.flatnonzero(holds)
        if candidates.size:
            parent[i] = int(candidates[np.argmin(duration[candidates])])
    return parent


def depths(parent: Sequence[int]) -> List[int]:
    depth = [-1] * len(parent)
    for i in range(len(parent)):
        chain = []
        j = i
        while j >= 0 and depth[j] < 0:
            chain.append(j)
            j = parent[j]
        base = depth[j] if j >= 0 else -1
        for k in reversed(chain):
            base += 1
            depth[k] = base
    return depth


def self_times(
    spans: Sequence[dict],
    parent: Sequence[int],
    window: Tuple[float, float],
) -> Tuple[List[float], float]:
    """Self time of every span inside ``window``, and the unattributed rest.

    Sweeps the span boundaries in time order; each elementary interval is
    split equally between the active spans that have no active child.
    ``sum(self) + unattributed == window length`` up to float rounding.
    """
    w0, w1 = window
    n = len(spans)
    own = [0.0] * n
    if n == 0:
        return own, max(w1 - w0, 0.0)
    start, end = _ends(spans)
    depth = depths(parent)
    events = []
    for i in range(n):
        s, e = max(start[i], w0), min(end[i], w1)
        if e <= s:
            continue
        events.append((e, 0, -depth[i], i))
        events.append((s, 1, depth[i], i))
    events.sort()
    active = [False] * n
    busy_children = [0] * n
    leaves = set()
    unattributed = 0.0
    now = w0
    for t, kind, _, i in events:
        dt = t - now
        if dt > 0:
            if leaves:
                share = dt / len(leaves)
                for leaf in leaves:
                    own[leaf] += share
            else:
                unattributed += dt
            now = t
        p = parent[i]
        if kind == 1:
            active[i] = True
            leaves.add(i)
            if p >= 0 and active[p]:
                busy_children[p] += 1
                leaves.discard(p)
        else:
            active[i] = False
            leaves.discard(i)
            if p >= 0 and active[p]:
                busy_children[p] -= 1
                if busy_children[p] == 0:
                    leaves.add(p)
    unattributed += max(w1 - now, 0.0)
    return own, unattributed


def inclusive_sims(spans: Sequence[dict], parent: Sequence[int]) -> List[float]:
    """Simulations issued inside each span (its own rows plus descendants')."""
    sims = [
        float(s.get("counters", {}).get("rows", 0)) if s["name"] == SIM_SPAN
        else 0.0
        for s in spans
    ]
    depth = depths(parent)
    for i in sorted(range(len(spans)), key=lambda k: -depth[k]):
        if parent[i] >= 0:
            sims[parent[i]] += sims[i]
    return sims


def ancestors(parent: Sequence[int], i: int):
    """Indices of span ``i``'s ancestors, innermost first."""
    j = parent[i]
    while j >= 0:
        yield j
        j = parent[j]


def outermost(spans, parent, i, key=lambda name: name) -> bool:
    """True when no ancestor of span ``i`` has the same ``key`` of its name."""
    mine = key(spans[i]["name"])
    return all(key(spans[j]["name"]) != mine for j in ancestors(parent, i))


def waterfall(
    spans: Sequence[dict],
    window: Tuple[float, float],
    main: Tuple[int, int],
    parent: Optional[List[int]] = None,
) -> dict:
    """Seconds, percent of wall clock and simulations per span name and module."""
    if parent is None:
        parent = build_tree(spans, main)
    own, unattributed = self_times(spans, parent, window)
    sims = inclusive_sims(spans, parent)
    w0, w1 = window
    wall = max(w1 - w0, 0.0)
    start, end = _ends(spans) if spans else (np.zeros(0), np.zeros(0))

    rows: Dict[str, dict] = {}
    modules: Dict[str, dict] = {}
    for i, span in enumerate(spans):
        clipped = max(min(end[i], w1) - max(start[i], w0), 0.0)
        if clipped <= 0.0:
            continue
        name = span["name"]
        module = module_of(name)
        row = rows.setdefault(
            name,
            {"module": module, "count": 0, "busy_s": 0.0, "self_s": 0.0,
             "sims": 0.0},
        )
        row["count"] += 1
        row["busy_s"] += clipped
        row["self_s"] += own[i]
        if outermost(spans, parent, i):
            row["sims"] += sims[i]
        mod = modules.setdefault(module, {"self_s": 0.0, "sims": 0.0})
        mod["self_s"] += own[i]
        if outermost(spans, parent, i, module_of):
            mod["sims"] += sims[i]

    def pct(seconds):
        return 100.0 * seconds / wall if wall > 0 else 0.0

    for entry in list(rows.values()) + list(modules.values()):
        entry["self_pct"] = pct(entry["self_s"])
    total_self = sum(m["self_s"] for m in modules.values())
    return {
        "wall_s": wall,
        "unattributed_s": unattributed,
        "unattributed_pct": pct(unattributed),
        "closure_error": (
            abs(total_self + unattributed - wall) / wall if wall > 0 else 0.0
        ),
        "spans": rows,
        "modules": modules,
    }


def format_waterfall(title: str, wf: dict) -> str:
    """Text table of a :func:`waterfall`, heaviest self time first."""
    lines = [
        f"waterfall {title}: wall {wf['wall_s']:.3f} s, "
        f"closure error {100 * wf['closure_error']:.4f}%",
        f"  {'module':<10} {'span':<24} {'count':>7} {'busy_s':>9} "
        f"{'self_s':>9} {'self_%':>7} {'sims':>10}",
    ]
    ordered = sorted(
        wf["spans"].items(), key=lambda item: -item[1]["self_s"]
    )
    for name, row in ordered:
        lines.append(
            f"  {row['module']:<10} {name:<24} {row['count']:>7d} "
            f"{row['busy_s']:>9.3f} {row['self_s']:>9.3f} "
            f"{row['self_pct']:>7.2f} {int(row['sims']):>10d}"
        )
    lines.append(
        f"  {'-':<10} {'unattributed':<24} {'':>7} {'':>9} "
        f"{wf['unattributed_s']:>9.3f} {wf['unattributed_pct']:>7.2f}"
    )
    lines.append("  by module:")
    for module, row in sorted(
        wf["modules"].items(), key=lambda item: -item[1]["self_s"]
    ):
        lines.append(
            f"    {module:<10} self {row['self_s']:>9.3f} s "
            f"{row['self_pct']:>6.2f}%  sims {int(row['sims'])}"
        )
    return "\n".join(lines)
