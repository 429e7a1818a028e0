"""Bench target for Figure 3: oracle speedup upper bound (timing only;
its claims live in :mod:`repro.experiments.claims`)."""

from conftest import BENCH_WORKLOADS, run_once

from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure3_campaign
from repro.experiments.figures import figure3


def test_fig3_oracle(benchmark, bench_sizes):
    run_once(benchmark, lambda: figure3(run_campaign(
        figure3_campaign(BENCH_WORKLOADS, **bench_sizes))))
