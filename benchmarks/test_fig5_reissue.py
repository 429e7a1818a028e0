"""Bench target for Figure 5: idealistic selective reissue (timing only;
its claims live in :mod:`repro.experiments.claims`)."""

from conftest import run_once

from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure5_campaign
from repro.experiments.figures import figure5
from repro.experiments.runner import make_predictor, run_workload, baseline_result

WORKLOADS = ("crafty", "wupwise")


def test_fig5_reissue(benchmark, bench_sizes):
    run_once(benchmark, lambda: figure5(run_campaign(
        figure5_campaign(WORKLOADS, **bench_sizes))))


def test_fig45_fpc_recovery_indifference(benchmark, bench_sizes):
    """One wupwise/2D-Stride/FPC pair, squash and reissue, and its baseline
    through the per-job runner API."""
    run_once(benchmark, lambda: [baseline_result("wupwise", **bench_sizes)] + [
        run_workload("wupwise", make_predictor("2dstride", fpc=True, recovery=r),
                     recovery=r, **bench_sizes) for r in ("squash", "reissue")])
