#!/usr/bin/env python3
"""Scenario: why commit-time squashing needs FPC (Sections 3.1, 8.2.1/8.2.4).

Sweeps the 2x2 of {baseline 3-bit, FPC} x {squash-at-commit, selective
reissue} on a low-baseline-accuracy workload, reproducing the paper's
argument end to end:

* plain counters + squash  -> slowdown (expensive mispredictions);
* plain counters + reissue -> rescued (cheap recovery);
* FPC + either             -> gains, nearly identical across mechanisms.

Usage::

    PYTHONPATH=src python examples/recovery_comparison.py

The analytic half recomputes the paper's Section 3.1 cycles-per-kilo-
instruction model (compare against the printed paper values); the
simulated half runs the 2×2 grid on crafty and should show the FPC rows
within a few percent of each other while the 3-bit/squash row loses.
The full-size versions of this comparison are Figures 4 and 5:
``repro campaign run fig4 --render`` / ``repro campaign run fig5
--render`` (add ``--cache-dir runs/`` before ``campaign`` to make them
resumable).
"""

from repro.analysis.cost_model import (
    PAPER_SCENARIOS,
    recovery_benefit_per_kilo_instruction,
)
from repro.experiments.runner import (
    baseline_result,
    make_predictor,
    run_workload,
)

WORKLOAD = "crafty"
SIZES = dict(n_uops=24_000, warmup=12_000)


def analytic_model() -> None:
    print("== Analytic model (Section 3.1) ==")
    print("   coverage 40%, accuracy 95%  vs  coverage 30%, accuracy 99.75%")
    for scenario in PAPER_SCENARIOS:
        loose = recovery_benefit_per_kilo_instruction(scenario, 0.40, 0.95)
        tight = recovery_benefit_per_kilo_instruction(scenario, 0.30, 0.9975)
        print(f"   {scenario.name:<18} {loose:+8.0f}   {tight:+8.0f}  cycles/Kinsn")
    print()


def simulated() -> None:
    print(f"== Simulated on {WORKLOAD} (Table 2 core) ==")
    base = baseline_result(WORKLOAD, **SIZES)
    print(f"   baseline IPC {base.ipc:.2f}")
    for fpc in (False, True):
        for recovery in ("squash", "reissue"):
            predictor = make_predictor("2dstride", fpc=fpc, recovery=recovery)
            result = run_workload(WORKLOAD, predictor, recovery=recovery, **SIZES)
            label = f"{'FPC' if fpc else '3-bit'} + {recovery}"
            print(
                f"   {label:<18} speedup {result.speedup_over(base):5.3f}  "
                f"acc {result.accuracy:7.3%}  "
                f"squashes {result.vp_squashes:4d}  reissues {result.vp_reissues:4d}"
            )
    print()
    print("   Claim check: with FPC the two recovery mechanisms should land")
    print("   within a few percent of each other (Fig. 4b vs Fig. 5b).")


if __name__ == "__main__":
    analytic_model()
    simulated()
