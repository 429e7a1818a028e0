"""Bench target for Figure 4: squash-at-commit, baseline counters vs FPC."""

from conftest import run_once

from repro.analysis.report import geometric_mean
from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure4_campaign
from repro.experiments.figures import figure4

WORKLOADS = ("crafty", "wupwise", "gcc", "h264ref")


def test_fig4_squash(benchmark, bench_sizes):
    """Figure 4's two panels, scaled down.

    Shapes that must hold (Section 8.2.1):
    * (a) baseline 3-bit counters + squash-at-commit produce slowdowns on
      low-accuracy benchmarks (crafty's almost-stable values);
    * (b) FPC lifts accuracy above ~99.5 % and removes the slowdowns.
    """
    fig = run_once(benchmark, lambda: figure4(run_campaign(
        figure4_campaign(WORKLOADS, **bench_sizes))))
    baseline = fig.series["baseline"]
    fpc = fig.series["FPC"]

    # (a) at least one predictor/benchmark combination loses performance
    # with plain 3-bit counters.
    baseline_speedups = [
        baseline[scheme]["speedup"][w]
        for scheme in baseline for w in WORKLOADS
    ]
    assert min(baseline_speedups) < 0.99

    # (b) with FPC no combination loses more than ~2 %.
    for scheme, data in fpc.items():
        for w, speedup in data["speedup"].items():
            assert speedup > 0.97, (scheme, w, speedup)
        for w, accuracy in data["accuracy"].items():
            if data["coverage"][w] > 0.05:
                assert accuracy > 0.99, (scheme, w, accuracy)

    # FPC never degrades the mean across the board.
    for scheme in fpc:
        assert (
            geometric_mean(fpc[scheme]["speedup"].values())
            >= geometric_mean(baseline[scheme]["speedup"].values()) - 0.02
        )
