"""Bench target for Figure 7: hybrid predictors."""

from conftest import run_once

from repro.analysis.report import geometric_mean
from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure7_campaign
from repro.experiments.figures import figure7

WORKLOADS = ("wupwise", "gcc", "hmmer")


def test_fig7_hybrid(benchmark, bench_sizes):
    """Figure 7 shapes (Section 8.3):

    * hybrids perform at least on par with the best of their components;
    * VTAGE+2D-Stride is at least as good as o4-FCM+2D-Stride on average;
    * hybrid coverage exceeds each component's (computational and
      context-based predictors predict different instructions).
    """
    fig = run_once(benchmark, lambda: figure7(run_campaign(
        figure7_campaign(WORKLOADS, **bench_sizes))))
    series = fig.series

    for w in WORKLOADS:
        best_single = max(
            series["2dstride"]["speedup"][w],
            series["vtage"]["speedup"][w],
        )
        hybrid = series["vtage-2dstride"]["speedup"][w]
        assert hybrid >= best_single - 0.06, (w, hybrid, best_single)

    vt_mean = geometric_mean(series["vtage-2dstride"]["speedup"].values())
    fcm_mean = geometric_mean(series["fcm-2dstride"]["speedup"].values())
    assert vt_mean >= fcm_mean - 0.02

    for w in WORKLOADS:
        hybrid_cov = series["vtage-2dstride"]["coverage"][w]
        assert hybrid_cov >= series["vtage"]["coverage"][w] - 0.05
        assert hybrid_cov >= series["2dstride"]["coverage"][w] - 0.05
