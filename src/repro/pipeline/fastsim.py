"""Dispatch between the compiled cycle-loop kernel and the spec loop.

Two implementations of the Table 2 scheduler exist:

* :meth:`repro.pipeline.core.CoreModel._run` — the executable spec, which
  takes every configuration;
* the compiled kernel (:mod:`repro.pipeline.ckernel`) — a C transliteration
  of ``_run`` over the per-trace
  :class:`~repro.pipeline.precompute.TracePlane`, for the predictor
  families and model states it supports.

:func:`try_run` is plain dispatch: it fetches the per-trace planes and
kernel inputs, calls the kernel, and on success hands the model the
trace, whose control µops :func:`~repro.pipeline.precompute.replay_branch_unit`
walks through the model's branch unit when a caller first reads it.  A
model that never had its branch unit read keeps the trace, not the unit.
Whenever it returns ``None`` exactly one structured reason has been
recorded through :func:`record_fallback`, and the caller (``CoreModel.run``)
runs the spec loop on the untouched model.  Reasons:

* ``unsupported-predictor:<Class>`` / ``non-default-branch-state`` /
  ``no-compiler`` — the static half, :func:`fallback_reason`;
* ``kernel-ineligible:<check>`` / ``kernel-error:<name>`` — recorded by
  :func:`repro.pipeline.ckernel.try_run`;
* ``stage-trace-hook`` / ``disabled-by-env`` — recorded by
  ``CoreModel.run`` itself.

Kernel results are bit-identical to ``_run`` (pinned by the golden grid run
in every mode and the randomized equivalence tests).

Environment knobs:

* ``REPRO_FAST_SIM=0`` — always take the spec loop.
* ``REPRO_FAST_SIM=require`` — raise :class:`FastPathRequired` instead of
  silently falling back (perf runs that must not quietly degrade).
"""

from __future__ import annotations

import os
from functools import partial

from repro.pipeline import ckernel
from repro.pipeline.precompute import (
    default_branch_state,
    kernel_inputs,
    replay_branch_unit,
    vtage_plane,
)
from repro.pipeline.result import SimResult
from repro.util import profiling

#: Master switch for the compiled kernel (``0`` = spec loop only).
FAST_SIM_ENV = "REPRO_FAST_SIM"


def fast_sim_mode() -> str:
    """The requested fast-path policy: ``"off"`` (``REPRO_FAST_SIM=0``),
    ``"require"`` (fall-backs raise :class:`FastPathRequired` instead of
    silently degrading) or ``"on"`` (fall back quietly, the default)."""
    raw = os.environ.get(FAST_SIM_ENV, "").strip().lower()
    if raw == "0":
        return "off"
    if raw == "require":
        return "require"
    return "on"


def fast_sim_enabled() -> bool:
    return fast_sim_mode() != "off"


class FastPathRequired(RuntimeError):
    """Raised under ``REPRO_FAST_SIM=require`` when a run would silently
    fall back to the spec loop.  The message carries the structured
    fallback reason (the same string :func:`fallback_stats` counts)."""

    def __init__(self, reason: str):
        super().__init__(
            f"REPRO_FAST_SIM=require but the fast path fell back: {reason}")
        self.reason = reason


# Per-process structured fallback counters: reason -> count.  Every run
# that bypasses the kernel records exactly one reason here; the CLI's
# ``--profile`` output surfaces them so a silently-degraded run is visible
# in the same place its timing is.  Pool-backend workers keep their own
# counters (same per-process scope as the profiling registry).
_FALLBACKS: dict[str, int] = {}
_LAST_FALLBACK: str | None = None


def record_fallback(reason: str) -> None:
    """Count one spec-loop fallback under a structured *reason*."""
    global _LAST_FALLBACK
    _FALLBACKS[reason] = _FALLBACKS.get(reason, 0) + 1
    _LAST_FALLBACK = reason


def fallback_stats() -> dict[str, int]:
    """Reason -> count of fast-path fallbacks in this process."""
    return dict(_FALLBACKS)


def last_fallback() -> str | None:
    """The most recent fallback reason, or ``None``."""
    return _LAST_FALLBACK


def reset_fallback_stats() -> None:
    global _LAST_FALLBACK
    _FALLBACKS.clear()
    _LAST_FALLBACK = None


def fallback_reason(model) -> str | None:
    """Why *model* would bypass the kernel, or ``None`` when eligible.

    This is the static half of the dispatch decision (predictor family,
    branch-unit state, kernel availability); the per-run checks are
    recorded by :func:`repro.pipeline.ckernel.try_run`, and the dynamic
    half (``REPRO_FAST_SIM=0``, a stage-trace hook) by ``CoreModel.run``.
    """
    if ckernel.predictor_type(model.predictor) is None:
        return f"unsupported-predictor:{type(model.predictor).__name__}"
    if not default_branch_state(model):
        return "non-default-branch-state"
    if not ckernel.kernel_available():
        return "no-compiler"
    return None


def kernel_mode() -> str:
    """Which loop eligible configs take in this process: ``"c"`` (compiled
    kernel) or ``"off"`` (spec loop: ``REPRO_FAST_SIM=0`` or no usable C
    compiler).  Shown by ``--profile`` so a timing report names the path
    it measured."""
    if fast_sim_enabled() and ckernel.kernel_available():
        return "c"
    return "off"


def try_run(model, trace, warmup: int, workload: str | None) -> SimResult | None:
    """Run *trace* through the compiled kernel, or record why not and
    return ``None`` (the caller then runs the spec loop).

    The caller (``CoreModel.run``) owns the gc pause and profiling phase.
    """
    reason = fallback_reason(model)
    if reason is not None:
        record_fallback(reason)
        return None
    ptype = ckernel.predictor_type(model.predictor)
    kernel_inputs(trace)  # first, so a VTAGE plane build reuses its keys
    vplane = (
        vtage_plane(trace, model.predictor)
        if ptype == ckernel.P_VTAGE else None
    )
    with profiling.phase("kernel-c"):
        result = ckernel.try_run(model, trace, warmup, workload, ptype, vplane)
    if result is not None:
        model.adopt("branch_unit", partial(replay_branch_unit, trace=trace))
    return result
