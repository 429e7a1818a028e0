#!/usr/bin/env python3
"""Scenario: bring your own workload to the simulator.

Shows the full public workflow for a downstream user: write a kernel with
the TraceBuilder (the same API the 19 built-in benchmarks use), inspect the
trace, and measure how much value prediction helps it.

The kernel here is a toy JSON-ish tokenizer: a dispatch loop whose token
kinds correlate with branch history (VTAGE food) around a memory-carried
cursor (stride food).

Usage::

    PYTHONPATH=src python examples/custom_workload.py

Expect the trace statistics first, then a predictor comparison where
VTAGE's coverage beats 2D-Stride's (the kind stream follows control flow,
not arithmetic), and finally the hybrid's end-to-end speedup.

If your workload is better described by *knobs* than by a hand-written
kernel, the parameterised scenario family gets you there without code:
``repro run scenario-c4-e25-l90`` simulates a pointer-chase/branch-
entropy/value-locality kernel, and ``repro campaign run scenario-sweep``
sweeps those knobs as campaign axes (see repro.workloads.scenarios).
"""

from repro.analysis.metrics import evaluate_predictor
from repro.core.confidence import ForwardProbabilisticCounters
from repro.core.hybrid import HybridPredictor
from repro.core.vtage import VTAGEPredictor
from repro.pipeline.core import simulate
from repro.predictors.stride import TwoDeltaStridePredictor
from repro.workloads.builder import TraceBuilder


def tokenizer_kernel(b: TraceBuilder, n_target: int) -> None:
    """Tokenize a repetitive key-value stream."""
    rng = b.rng
    kinds = []  # grammar: { key : value , key : value ... }
    while len(kinds) < 4096:
        kinds.extend([0, 1, 2, 1, 3] * rng.randrange(2, 6))  # {, k, :, v, ...
        kinds.append(4)  # }
    kind_class = [11, 23, 37, 41, 53]
    table_base = b.alloc(len(kind_class) * 8)
    cursor_slot = b.alloc(8)
    cursor = 0
    i = 0
    while b.n < n_target:
        kind = kinds[i % len(kinds)]
        # Memory-carried cursor: reload, advance, store (stride stream).
        b.load("tok_ld_cur", "cur", cursor_slot, cursor)
        cursor += 4
        b.alu("tok_adv", "cur", ["cur"], cursor)
        b.store("tok_st_cur", cursor_slot, "cur")
        # Dispatch on the token kind: branches encode it into the history.
        b.branch("tok_is_struct", taken=kind in (0, 4), target_label="tok_ld_cur",
                 srcs=["cur"])
        b.branch("tok_is_key", taken=kind == 1, target_label="tok_ld_cur",
                 srcs=["cur"])
        # Class lookup: value determined by the (history-visible) kind.
        cls = kind_class[kind]
        b.load("tok_ld_cls", "cls", table_base + kind * 8, cls, addr_srcs=["cur"])
        b.alu("tok_acc", "acc", ["cls", "acc"] if i else ["cls"], cls * (i + 1))
        i += 1


def main() -> None:
    builder = TraceBuilder("tokenizer", seed=42)
    tokenizer_kernel(builder, 36_000)
    trace = builder.trace
    stats = trace.stats()
    print(f"generated {len(trace)} µops: "
          f"{stats.branch_ratio:.0%} branches, {stats.load_ratio:.0%} loads, "
          f"{stats.n_value_producers} value producers")
    print(f"back-to-back eligible fraction: {trace.back_to_back_fraction():.1%}")
    print()

    print("trace-driven predictor comparison:")
    for predictor in (
        TwoDeltaStridePredictor(confidence=ForwardProbabilisticCounters.for_squash()),
        VTAGEPredictor(confidence=ForwardProbabilisticCounters.for_squash()),
    ):
        s = evaluate_predictor(trace, predictor, warmup=12_000, training_delay=30)
        print(f"  {predictor.name:<10} coverage {s.coverage:6.1%} "
              f"accuracy {s.accuracy:8.3%}")
    print()

    print("full-pipeline speedup with the paper's hybrid:")
    base = simulate(trace, None, warmup=12_000, workload="tokenizer")
    hybrid = HybridPredictor(
        VTAGEPredictor(confidence=ForwardProbabilisticCounters.for_squash()),
        TwoDeltaStridePredictor(confidence=ForwardProbabilisticCounters.for_squash()),
    )
    vp = simulate(trace, hybrid, warmup=12_000, workload="tokenizer")
    print(f"  baseline IPC {base.ipc:.2f} -> with VP {vp.ipc:.2f} "
          f"({vp.speedup_over(base):.2f}x), squashes {vp.vp_squashes}")


if __name__ == "__main__":
    main()
