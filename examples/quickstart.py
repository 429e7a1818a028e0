#!/usr/bin/env python3
"""Quickstart: predict a value stream, then speed up a whole workload.

Three stops, each one layer deeper into the stack:

1. *trace-driven accuracy* — run three predictors over the gcc workload's
   value stream with no timing model, and watch VTAGE win on
   branch-history-correlated values;
2. *Forward Probabilistic Counters* (paper Section 5) — see FPC trade
   coverage for the >99.5 % accuracy that commit-time squash recovery
   needs, on crafty's almost-stable values;
3. *full pipeline* — a Table 2 core simulation of h264ref showing the
   paper's Section 8.2.2 shape: small coverage, large speedup, because
   the covered divisions gate the critical path.

Usage::

    PYTHONPATH=src python examples/quickstart.py

Runs in well under a minute; expect section 3 to report a speedup around
1.2-1.3x with coverage of only a few percent.  From here:
``examples/recovery_comparison.py`` for the recovery-mechanism argument,
``examples/predictor_shootout.py`` for the cross-predictor campaign, and
``repro figure 4`` for a full paper figure.
"""

from repro import quick_run
from repro.analysis.metrics import evaluate_predictor
from repro.core.confidence import ConfidencePolicy, ForwardProbabilisticCounters
from repro.core.vtage import VTAGEPredictor
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.stride import TwoDeltaStridePredictor
from repro.workloads.catalog import build_trace


def predictor_accuracy_demo() -> None:
    """Trace-driven accuracy/coverage, no timing model involved."""
    print("== 1. Predictor accuracy on the gcc workload ==")
    trace = build_trace("gcc", 30_000)
    for predictor in (
        LastValuePredictor(confidence=ConfidencePolicy()),
        TwoDeltaStridePredictor(confidence=ConfidencePolicy()),
        VTAGEPredictor(confidence=ConfidencePolicy()),
    ):
        stats = evaluate_predictor(trace, predictor, warmup=10_000)
        print(
            f"  {predictor.name:<10} coverage {stats.coverage:6.1%}  "
            f"accuracy {stats.accuracy:8.3%}"
        )
    print("  (gcc's node kinds follow the branch history: VTAGE's home turf)")
    print()


def fpc_demo() -> None:
    """FPC pushes accuracy up by making confidence harder to earn."""
    print("== 2. Forward Probabilistic Counters (Section 5) ==")
    trace = build_trace("crafty", 30_000)
    for label, policy in (
        ("3-bit baseline", ConfidencePolicy(bits=3)),
        ("FPC (squash)", ForwardProbabilisticCounters.for_squash()),
    ):
        predictor = LastValuePredictor(confidence=policy)
        stats = evaluate_predictor(trace, predictor, warmup=10_000,
                                   training_delay=30)
        print(
            f"  {label:<16} coverage {stats.coverage:6.1%}  "
            f"accuracy {stats.accuracy:8.3%}"
        )
    print("  (crafty's almost-stable values trap plain counters; FPC trades")
    print("   coverage for the >99.5% accuracy commit-time recovery needs)")
    print()


def pipeline_demo() -> None:
    """Full pipeline simulation: speedup over the no-VP baseline."""
    print("== 3. End-to-end speedup (Table 2 core, squash at commit) ==")
    base = quick_run("h264ref", predictor="none", n_uops=24_000, warmup=12_000)
    hybrid = quick_run("h264ref", predictor="vtage-2dstride",
                       n_uops=24_000, warmup=12_000)
    print(f"  baseline IPC            {base.ipc:5.2f}")
    print(f"  VTAGE+2D-Stride IPC     {hybrid.ipc:5.2f}")
    print(f"  speedup                 {hybrid.speedup_over(base):5.2f}x")
    print(f"  coverage / accuracy     {hybrid.coverage:5.1%} / {hybrid.accuracy:7.3%}")
    print(f"  value-misprediction squashes: {hybrid.vp_squashes}")
    print("  (h264ref: a small covered fraction gates the critical path —")
    print("   few predictions, large payoff, as in Section 8.2.2)")


if __name__ == "__main__":
    predictor_accuracy_demo()
    fpc_demo()
    pipeline_demo()
