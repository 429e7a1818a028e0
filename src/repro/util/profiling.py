"""Opt-in per-phase wall-clock accounting (the ``--profile`` flag).

Perf PRs need first-party numbers for where a run actually spends time —
trace generation, columnization, simulation, store and result-cache IO —
without reaching for an external profiler.  This module is a tiny global
accumulator: the hot layers wrap their coarse phases in :func:`phase`
(one context-manager entry per *job-level* operation, never per µop), and
``repro run --profile`` / ``repro campaign run --profile`` enable it and
print the report.

Disabled (the default) the wrapper is a cheap boolean check, so the
instrumented code paths cost nothing measurable in production.  Phases
record in the *current process only*: with a pool or service backend,
worker-side simulation time does not appear in the parent's report (the
parent still sees trace materialisation, which PR 5 moved parent-side) —
profile with a serial run when you need the full breakdown.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_enabled = False
_totals: dict[str, float] = {}
_counts: dict[str, int] = {}


def enable(reset: bool = True) -> None:
    """Turn phase accounting on (optionally clearing prior totals)."""
    global _enabled
    if reset:
        _totals.clear()
        _counts.clear()
    _enabled = True


def disable() -> None:
    """Turn phase accounting off (totals are kept until the next enable)."""
    global _enabled
    _enabled = False


@contextmanager
def phase(name: str):
    """Record wall-clock time spent in the ``with`` body under *name*.

    A no-op (one boolean check) while profiling is disabled.  Phases may
    nest; each level accounts its own full span, so nested phases (e.g.
    ``trace-build`` inside ``store-io``) overlap rather than partition.
    """
    if not _enabled:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        _totals[name] = _totals.get(name, 0.0) + elapsed
        _counts[name] = _counts.get(name, 0) + 1


def add(name: str, seconds: float) -> None:
    """Credit *seconds* to phase *name* directly (for pre-measured spans)."""
    if not _enabled:
        return
    _totals[name] = _totals.get(name, 0.0) + seconds
    _counts[name] = _counts.get(name, 0) + 1


def snapshot() -> dict[str, dict]:
    """Per-phase ``{"seconds", "calls"}`` totals recorded so far."""
    return {
        name: {"seconds": _totals[name], "calls": _counts.get(name, 0)}
        for name in sorted(_totals)
    }


def format_report() -> str:
    """Human-readable per-phase table (what ``--profile`` prints)."""
    snap = snapshot()
    if not snap:
        return "profile: no phases recorded"
    width = max(len(name) for name in snap)
    lines = ["profile (wall-clock per phase, this process only):"]
    for name, row in sorted(snap.items(), key=lambda kv: -kv[1]["seconds"]):
        lines.append(
            f"  {name:<{width}}  {row['seconds']:9.3f}s"
            f"  ({row['calls']} call{'s' if row['calls'] != 1 else ''})"
        )
    return "\n".join(lines)
