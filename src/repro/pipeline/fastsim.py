"""Process policy for the choice between the two cycle loops.

Two implementations of the Table 2 scheduler exist: the executable spec
:meth:`repro.pipeline.core.CoreModel._run`, which takes every
configuration, and the compiled kernel (:mod:`repro.pipeline.ckernel`),
bit-identical for the configurations its precondition
(:func:`repro.pipeline.ckernel.decline_reason`) admits.  ``CoreModel.run``
picks the loop for each run at one place and records there the one
reason a run takes the spec loop:

* ``disabled-by-env`` / ``stage-trace-hook`` — ``REPRO_FAST_SIM=0`` or a
  stage-trace hook;
* ``unsupported-predictor:<Class>`` / ``non-default-branch-state`` /
  ``no-compiler`` / ``kernel-ineligible:<check>`` — what
  ``decline_reason`` returns, before any plane is built;
* ``kernel-error:<name>`` — what :func:`repro.pipeline.ckernel.run`
  returns when the kernel fails part-way.

This module holds what that decision reads and writes for the process:
the mode, the fallback counters and :class:`FastPathRequired`.

Environment knobs:

* ``REPRO_FAST_SIM=0`` — always take the spec loop.
* ``REPRO_FAST_SIM=require`` — raise :class:`FastPathRequired` instead of
  silently falling back (perf runs that must not quietly degrade).
"""

from __future__ import annotations

import os

from repro.pipeline import ckernel

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


def record_fallback(reason: str) -> None:
    """Count one spec-loop fallback under a structured *reason*."""
    _FALLBACKS[reason] = _FALLBACKS.get(reason, 0) + 1


def fallback_stats() -> dict[str, int]:
    """Reason -> count of fast-path fallbacks in this process."""
    return dict(_FALLBACKS)


def reset_fallback_stats() -> None:
    _FALLBACKS.clear()


def fallback_reason(model) -> str | None:
    """Why *model* would bypass the kernel whatever the trace, or ``None``:
    the checks of :func:`repro.pipeline.ckernel.decline_reason` that read
    no trace."""
    return ckernel.decline_reason(model)


def kernel_mode() -> str:
    """Which loop eligible configs take in this process: ``"c"`` (compiled
    kernel) or ``"off"`` (spec loop: ``REPRO_FAST_SIM=0`` or no usable C
    compiler).  Shown by ``--profile`` so a timing report names the path
    it measured."""
    if fast_sim_enabled() and ckernel.kernel_available():
        return "c"
    return "off"
