"""Bench target for Figure 5: idealistic selective reissue."""

from conftest import run_once

from repro.engine.campaign import run_campaign
from repro.experiments.campaigns import figure5_campaign
from repro.experiments.figures import figure5
from repro.experiments.runner import make_predictor, run_workload, baseline_result

WORKLOADS = ("crafty", "wupwise")


def test_fig5_reissue(benchmark, bench_sizes):
    """Figure 5, scaled down.

    Shapes (Section 8.2.4): selective reissue rescues the *baseline*
    confidence counters (its cheap recovery tolerates their mispredicts),
    and with FPC the recovery mechanism barely matters."""
    fig = run_once(benchmark, lambda: figure5(run_campaign(
        figure5_campaign(WORKLOADS, **bench_sizes))))
    baseline = fig.series["baseline"]
    fpc = fig.series["FPC"]
    # Under reissue, even baseline counters should not collapse: everything
    # stays within a few percent of 1.0 or above.
    for scheme, data in baseline.items():
        for w, speedup in data["speedup"].items():
            assert speedup > 0.93, (scheme, w, speedup)
    for scheme, data in fpc.items():
        for w, speedup in data["speedup"].items():
            assert speedup > 0.97, (scheme, w, speedup)


def test_fig45_fpc_recovery_indifference(benchmark, bench_sizes):
    """The paper's headline: with FPC, squash-at-commit performs within a
    whisker of idealized selective reissue (Figs. 4b vs 5b)."""

    def run_pair():
        out = {}
        for recovery in ("squash", "reissue"):
            r = run_workload(
                "wupwise",
                make_predictor("2dstride", fpc=True, recovery=recovery),
                recovery=recovery,
                **bench_sizes,
            )
            base = baseline_result("wupwise", **bench_sizes)
            out[recovery] = r.speedup_over(base)
        return out

    pair = run_once(benchmark, run_pair)
    # Within ~12% relative at these short slices (FPC warm-up noise); the
    # full-length reproduce runs land within a few percent.
    gap = abs(pair["squash"] - pair["reissue"]) / max(pair.values())
    assert gap < 0.12, pair
    assert min(pair.values()) > 1.0, pair  # both mechanisms show the gain
