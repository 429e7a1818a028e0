"""Reproductions of the paper's figures.

Every function returns a :class:`FigureResult`: the raw per-benchmark
series plus a rendered text version (tables + ASCII bar charts).

Figures 3–7 are pure views of a
:class:`~repro.engine.campaign.CampaignResult`: they simulate nothing and
read their series off its aggregation hooks, with workload order taken
from ``result.spec.meta``.  The result may be the figure's own campaign
(``figureN_campaign`` in :mod:`repro.experiments.campaigns`) or any
superset of it, such as the ``reproduce`` union: every read pins the
predictor, confidence and recovery axes it means, so cells of the other
figures never leak in.

Paper-figure inventory (Section 8):

* Figure 1  — back-to-back prediction critical paths (Section 3.2);
* Figure 3  — speedup upper bound with a perfect predictor;
* Figure 4  — squash-at-commit speedups, baseline 3-bit counters vs FPC;
* Figure 5  — same with idealistic selective reissue;
* Figure 6  — VTAGE speedup and coverage with and without FPC;
* Figure 7  — hybrid predictors (VTAGE+2D-Stride vs o4-FCM+2D-Stride).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import ascii_bar_chart, format_table, geometric_mean
from repro.engine.campaign import CampaignResult
from repro.engine.job import DEFAULT_MEASURE, DEFAULT_WARMUP
from repro.workloads.catalog import build_trace
from repro.workloads.names import ALL_WORKLOADS

#: Single-scheme predictors of Figures 4/5 (paper Section 8.2).
SINGLE_SCHEMES = ("lvp", "2dstride", "fcm", "vtage")

#: Hybrid comparison set of Figure 7 (paper Section 8.3).
HYBRID_SCHEMES = ("2dstride", "fcm", "vtage", "fcm-2dstride", "vtage-2dstride")


@dataclass
class FigureResult:
    """One reproduced figure: raw series + rendered text."""

    figure_id: str
    title: str
    series: dict = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _workloads(result: CampaignResult) -> tuple[str, ...]:
    """The campaign's workload order, which every figure table follows."""
    return tuple(result.spec.meta_dict()["workloads"])


# ---------------------------------------------------------------------------
# Figure 1 / Section 3.2: back-to-back occurrences and critical paths.
# ---------------------------------------------------------------------------

#: Critical-path structure of each predictor family (Fig. 1's three flows).
CRITICAL_PATHS = {
    "LVP": {
        "uses_previous_result": False,
        "critical_loop": "none — successive lookups independent "
                         "(table read can span Fetch..Dispatch)",
        "back_to_back_safe": True,
    },
    "2D-Stride": {
        "uses_previous_result": True,
        "critical_loop": "last-value forwarding into the adder "
                         "(1 step; tractable)",
        "back_to_back_safe": True,
    },
    "o4-FCM": {
        "uses_previous_result": True,
        "critical_loop": "hash -> VPT read -> forward to next index hash "
                         "(2 dependent steps; must fit in 1 cycle)",
        "back_to_back_safe": False,
    },
    "VTAGE": {
        "uses_previous_result": False,
        "critical_loop": "none — indexed by PC + branch/path history only",
        "back_to_back_safe": True,
    },
}


def figure1(
    workloads: tuple[str, ...] = ALL_WORKLOADS,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    fetch_width: int = 8,
) -> FigureResult:
    """Back-to-back fractions (Section 3.2's 15.3 % max / 3.4 % amean) plus
    the Figure 1 critical-path comparison.

    Each fraction is measured over the measured window (after *warmup*)
    of the same ``warmup + n_uops`` trace a simulation of that slice
    runs, so a run that simulated the slice generates nothing here."""
    fractions = {
        name: build_trace(name, warmup + n_uops).back_to_back_fraction(
            fetch_width, start=warmup)
        for name in workloads
    }
    amean = sum(fractions.values()) / len(fractions)
    peak = max(fractions.values())
    path_rows = [
        (name, "yes" if info["uses_previous_result"] else "no",
         "yes" if info["back_to_back_safe"] else "NO",
         info["critical_loop"])
        for name, info in CRITICAL_PATHS.items()
    ]
    text = "\n\n".join(
        [
            format_table(
                ["Predictor", "Needs last value", "Back-to-back OK", "Critical loop"],
                path_rows,
                title="Figure 1: prediction critical paths",
            ),
            ascii_bar_chart(
                fractions,
                title=(
                    "Eligible uops whose previous occurrence is within one "
                    f"fetch group (paper: max 15.3%, amean 3.4%) — "
                    f"measured max {peak:.1%}, amean {amean:.1%}"
                ),
                baseline=0.0,
                fmt="{:.3f}",
            ),
        ]
    )
    return FigureResult(
        "fig1", "Back-to-back prediction feasibility",
        series={"fractions": fractions, "amean": amean, "max": peak,
                "critical_paths": CRITICAL_PATHS},
        text=text,
    )


# ---------------------------------------------------------------------------
# Figure 3: oracle upper bound.
# ---------------------------------------------------------------------------

def figure3(result: CampaignResult) -> FigureResult:
    """Speedup upper bound: an oracle predicts all results (Fig. 3)."""
    series = result.speedup_by_workload(predictor="oracle", fpc=True,
                                        recovery="squash")
    text = ascii_bar_chart(
        series,
        title="Figure 3: speedup upper bound (perfect value predictor)",
    )
    return FigureResult("fig3", "Oracle speedup upper bound",
                        series={"speedup": series}, text=text)


# ---------------------------------------------------------------------------
# Figures 4 & 5: single-scheme predictors, two recovery mechanisms.
# ---------------------------------------------------------------------------


def _predictor_grid(result: CampaignResult, recovery: str) -> dict:
    """Pivot the Fig. 4/5 cells into confidence → scheme → series."""
    grid: dict = {}
    for fpc in (False, True):
        label = "FPC" if fpc else "baseline"
        grid[label] = {}
        for scheme in SINGLE_SCHEMES:
            pins = {"predictor": scheme, "fpc": fpc, "recovery": recovery}
            results = result.by("workload", **pins)
            grid[label][scheme] = {
                "speedup": result.speedup_by_workload(**pins),
                "coverage": {w: r.coverage for w, r in results.items()},
                "accuracy": {w: r.accuracy for w, r in results.items()},
                "squashes": {w: r.vp_squashes for w, r in results.items()},
                "reissues": {w: r.vp_reissues for w, r in results.items()},
            }
    return grid


def _render_grid(figure_id: str, title: str, grid: dict) -> str:
    blocks = [title]
    for conf_label, by_scheme in grid.items():
        workloads = next(iter(by_scheme.values()))["speedup"].keys()
        rows = []
        for workload in workloads:
            row = [workload]
            for scheme in SINGLE_SCHEMES:
                row.append(f"{by_scheme[scheme]['speedup'][workload]:.3f}")
            rows.append(row)
        gmeans = ["gmean"] + [
            f"{geometric_mean(by_scheme[s]['speedup'].values()):.3f}"
            for s in SINGLE_SCHEMES
        ]
        rows.append(gmeans)
        blocks.append(
            format_table(
                ["benchmark"] + list(SINGLE_SCHEMES),
                rows,
                title=f"({figure_id}) speedup over no-VP baseline — "
                      f"{conf_label} confidence counters",
            )
        )
    return "\n\n".join(blocks)


def figure4(result: CampaignResult) -> FigureResult:
    """Fig. 4: speedups with squash-at-commit recovery, (a) baseline 3-bit
    counters, (b) FPC."""
    grid = _predictor_grid(result, "squash")
    text = _render_grid(
        "fig4", "Figure 4: squashing at commit on value misprediction", grid
    )
    return FigureResult("fig4", "Squash-at-commit speedups", series=grid, text=text)


def figure5(result: CampaignResult) -> FigureResult:
    """Fig. 5: speedups with idealistic selective reissue."""
    grid = _predictor_grid(result, "reissue")
    text = _render_grid(
        "fig5", "Figure 5: idealistic selective reissue on value misprediction",
        grid,
    )
    return FigureResult("fig5", "Selective-reissue speedups", series=grid, text=text)


# ---------------------------------------------------------------------------
# Figure 6: VTAGE speedup and coverage, with and without FPC.
# ---------------------------------------------------------------------------

def figure6(result: CampaignResult) -> FigureResult:
    """Fig. 6: VTAGE speedup, coverage and accuracy, 3-bit vs FPC."""
    series: dict = {}
    for fpc in (False, True):
        label = "FPC" if fpc else "baseline"
        pins = {"predictor": "vtage", "fpc": fpc, "recovery": "squash"}
        results = result.by("workload", **pins)
        series[label] = {
            "speedup": result.speedup_by_workload(**pins),
            "coverage": {w: r.coverage for w, r in results.items()},
            "accuracy": {w: r.accuracy for w, r in results.items()},
        }
    rows = [
        (
            w,
            f"{series['baseline']['speedup'][w]:.3f}",
            f"{series['FPC']['speedup'][w]:.3f}",
            f"{series['baseline']['coverage'][w]:.2f}",
            f"{series['FPC']['coverage'][w]:.2f}",
            f"{series['baseline']['accuracy'][w]:.4f}",
            f"{series['FPC']['accuracy'][w]:.4f}",
        )
        for w in _workloads(result)
    ]
    text = format_table(
        ["benchmark", "speedup(base)", "speedup(FPC)",
         "cov(base)", "cov(FPC)", "acc(base)", "acc(FPC)"],
        rows,
        title="Figure 6: VTAGE speedup and coverage, with/without FPC "
              "(squash at commit)",
    )
    return FigureResult("fig6", "VTAGE with/without FPC", series=series, text=text)


# ---------------------------------------------------------------------------
# Figure 7: hybrids.
# ---------------------------------------------------------------------------


def figure7(result: CampaignResult) -> FigureResult:
    """Fig. 7: hybrids against their components (FPC, squash at commit)."""
    series: dict = {}
    for scheme in HYBRID_SCHEMES:
        pins = {"predictor": scheme, "fpc": True, "recovery": "squash"}
        results = result.by("workload", **pins)
        series[scheme] = {
            "speedup": result.speedup_by_workload(**pins),
            "coverage": {w: r.coverage for w, r in results.items()},
        }
    speed_rows = []
    cov_rows = []
    for w in _workloads(result):
        speed_rows.append([w] + [f"{series[s]['speedup'][w]:.3f}" for s in HYBRID_SCHEMES])
        cov_rows.append([w] + [f"{series[s]['coverage'][w]:.2f}" for s in HYBRID_SCHEMES])
    speed_rows.append(
        ["gmean"] + [
            f"{geometric_mean(series[s]['speedup'].values()):.3f}"
            for s in HYBRID_SCHEMES
        ]
    )
    text = "\n\n".join(
        [
            format_table(["benchmark"] + list(HYBRID_SCHEMES), speed_rows,
                         title="Figure 7a: hybrid speedups (FPC, squash at commit)"),
            format_table(["benchmark"] + list(HYBRID_SCHEMES), cov_rows,
                         title="Figure 7b: coverage"),
        ]
    )
    return FigureResult("fig7", "Hybrid predictors", series=series, text=text)
