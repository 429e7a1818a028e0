"""Bench target for Figure 6: VTAGE speedup/coverage with and without FPC
(timing only; its claims live in :mod:`repro.experiments.claims`)."""

from conftest import run_once

from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure6_campaign
from repro.experiments.figures import figure6

WORKLOADS = ("crafty", "gcc", "namd")


def test_fig6_vtage_fpc(benchmark, bench_sizes):
    run_once(benchmark, lambda: figure6(run_campaign(
        figure6_campaign(WORKLOADS, **bench_sizes))))
