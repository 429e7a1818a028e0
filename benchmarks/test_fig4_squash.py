"""Bench target for Figure 4: squash-at-commit, baseline counters vs FPC
(timing only; its claims live in :mod:`repro.experiments.claims`)."""

from conftest import run_once

from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure4_campaign
from repro.experiments.figures import figure4

WORKLOADS = ("crafty", "wupwise", "gcc", "h264ref")


def test_fig4_squash(benchmark, bench_sizes):
    run_once(benchmark, lambda: figure4(run_campaign(
        figure4_campaign(WORKLOADS, **bench_sizes))))
