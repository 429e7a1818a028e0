"""Bench target for Figure 3: oracle speedup upper bound."""

from conftest import BENCH_WORKLOADS, run_once

from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure3_campaign
from repro.experiments.figures import figure3


def test_fig3_oracle(benchmark, bench_sizes):
    """A perfect predictor must show substantial headroom on dependence-
    or memory-limited benchmarks and never slow anything down.

    Paper reference: "a perfect predictor would indeed increase performance
    by quite a significant factor (up to 3.3) in most benchmarks"."""
    fig = run_once(benchmark, lambda: figure3(run_campaign(
        figure3_campaign(BENCH_WORKLOADS, **bench_sizes))))
    speedups = fig.series["speedup"]
    assert all(s >= 0.97 for s in speedups.values()), speedups
    assert max(speedups.values()) > 1.3
    # milc has little to gain (Fig. 3's short bars exist too).
    assert speedups["milc"] < min(1.5, max(speedups.values()))
