"""Bench target for Figure 6: VTAGE speedup/coverage with and without FPC."""

from conftest import run_once

from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure6_campaign
from repro.experiments.figures import figure6

WORKLOADS = ("crafty", "gcc", "namd")


def test_fig6_vtage_fpc(benchmark, bench_sizes):
    """Figure 6 shapes (Section 8.2.2):

    * FPC trades coverage for accuracy — coverage drops most where the
      baseline accuracy was lowest (crafty's almost-stable values);
    * with FPC no benchmark loses performance;
    * namd keeps high coverage yet only marginal speedup.
    """
    fig = run_once(benchmark, lambda: figure6(run_campaign(
        figure6_campaign(WORKLOADS, **bench_sizes))))
    base = fig.series["baseline"]
    fpc = fig.series["FPC"]

    # Coverage cost of FPC.
    for w in WORKLOADS:
        assert fpc["coverage"][w] <= base["coverage"][w] + 0.02, w

    # Accuracy gain of FPC.
    for w in WORKLOADS:
        assert fpc["accuracy"][w] >= base["accuracy"][w] - 0.001, w

    # No slowdowns with FPC.
    for w in WORKLOADS:
        assert fpc["speedup"][w] > 0.97, (w, fpc["speedup"][w])

    # namd: coverage without payoff ("high coverage does not correlate
    # with high performance").
    assert fpc["coverage"]["namd"] > 0.15
    assert fpc["speedup"]["namd"] < 1.25
