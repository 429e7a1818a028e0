"""Bench target for Figure 7: hybrid predictors (timing only; its claims
live in :mod:`repro.experiments.claims`)."""

from conftest import run_once

from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure7_campaign
from repro.experiments.figures import figure7

WORKLOADS = ("wupwise", "gcc", "hmmer")


def test_fig7_hybrid(benchmark, bench_sizes):
    run_once(benchmark, lambda: figure7(run_campaign(
        figure7_campaign(WORKLOADS, **bench_sizes))))
