"""Named campaign specs: every paper sweep as a declarative value.

Each builder returns the :class:`~repro.engine.campaign.CampaignSpec` for
one evaluation grid — the predictor/confidence/recovery/workload product a
figure needs *plus* the no-VP baseline block its speedups divide by.
``run_campaign`` executes a spec and the figure renderers in
:mod:`repro.experiments.figures` read the returned
:class:`~repro.engine.campaign.CampaignResult`; with a disk result cache
(``--cache-dir``) a sweep survives kills and a rerun resumes
bit-identically.

``CAMPAIGNS`` is the registry the CLI exposes.  ``reproduce`` is the union
of every figure grid: ``repro.experiments.reproduce`` runs it once and
renders Figures 3–7 from that one result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.report import format_table, geometric_mean
from repro.engine.campaign import AxisBlock, CampaignResult, CampaignSpec
from repro.engine.job import DEFAULT_MEASURE, DEFAULT_WARMUP
from repro.experiments import figures
from repro.experiments.figures import HYBRID_SCHEMES, SINGLE_SCHEMES
from repro.workloads.names import ALL_WORKLOADS
from repro.workloads.scenarios import scenario_axis


def _sizes(n_uops: int, warmup: int) -> dict:
    return {"n_uops": n_uops, "warmup": warmup}


def baseline_block(workloads: tuple[str, ...], n_uops: int, warmup: int) -> AxisBlock:
    """The no-VP baselines every figure's speedups divide by.

    Identical by construction to ``runner.baseline_job`` specs (predictor
    ``none``, recovery normalised to squash), so campaigns and the legacy
    per-job API share one result-cache entry per (workload, slice).
    """
    return AxisBlock.make(
        {"workload": list(workloads)},
        base={"predictor": "none", "recovery": "squash", **_sizes(n_uops, warmup)},
    )


def figure3_campaign(
    workloads: tuple[str, ...] = ALL_WORKLOADS,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> CampaignSpec:
    """Oracle upper bound (Fig. 3): perfect predictor vs baseline."""
    return CampaignSpec.union(
        "fig3",
        AxisBlock.make(
            {"workload": list(workloads)},
            base={"predictor": "oracle", **_sizes(n_uops, warmup)},
        ),
        baseline_block(workloads, n_uops, warmup),
        meta=_meta(workloads, n_uops, warmup),
    )


def _single_scheme_campaign(
    name: str,
    recovery: str,
    workloads: tuple[str, ...],
    n_uops: int,
    warmup: int,
) -> CampaignSpec:
    return CampaignSpec.union(
        name,
        AxisBlock.make(
            {
                "fpc": [False, True],
                "predictor": list(SINGLE_SCHEMES),
                "workload": list(workloads),
            },
            base={"recovery": recovery, **_sizes(n_uops, warmup)},
        ),
        baseline_block(workloads, n_uops, warmup),
        meta=_meta(workloads, n_uops, warmup),
    )


def figure4_campaign(
    workloads: tuple[str, ...] = ALL_WORKLOADS,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> CampaignSpec:
    """Squash-at-commit grid (Fig. 4): schemes × {3-bit, FPC} × workloads."""
    return _single_scheme_campaign("fig4", "squash", workloads, n_uops, warmup)


def figure5_campaign(
    workloads: tuple[str, ...] = ALL_WORKLOADS,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> CampaignSpec:
    """Selective-reissue grid (Fig. 5): same axes, reissue recovery."""
    return _single_scheme_campaign("fig5", "reissue", workloads, n_uops, warmup)


def figure6_campaign(
    workloads: tuple[str, ...] = ALL_WORKLOADS,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> CampaignSpec:
    """VTAGE ± FPC (Fig. 6)."""
    return CampaignSpec.union(
        "fig6",
        AxisBlock.make(
            {"fpc": [False, True], "workload": list(workloads)},
            base={"predictor": "vtage", "recovery": "squash",
                  **_sizes(n_uops, warmup)},
        ),
        baseline_block(workloads, n_uops, warmup),
        meta=_meta(workloads, n_uops, warmup),
    )


def figure7_campaign(
    workloads: tuple[str, ...] = ALL_WORKLOADS,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> CampaignSpec:
    """Hybrids vs components (Fig. 7), FPC + squash."""
    return CampaignSpec.union(
        "fig7",
        AxisBlock.make(
            {"predictor": list(HYBRID_SCHEMES), "workload": list(workloads)},
            base={"recovery": "squash", **_sizes(n_uops, warmup)},
        ),
        baseline_block(workloads, n_uops, warmup),
        meta=_meta(workloads, n_uops, warmup),
    )


def reproduce_campaign(
    workloads: tuple[str, ...] = ALL_WORKLOADS,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> CampaignSpec:
    """Every simulation the full reproduction needs, as one sweep.

    The union of the Figure 3–7 grids (shared cells — baselines, the
    squash/FPC single-scheme row — dedupe by content key).  It is the
    largest sweep: give it a disk result cache (``--cache-dir``) so a
    killed run resumes.
    """
    parts = [
        figure3_campaign(workloads, n_uops, warmup),
        figure4_campaign(workloads, n_uops, warmup),
        figure5_campaign(workloads, n_uops, warmup),
        figure6_campaign(workloads, n_uops, warmup),
        figure7_campaign(workloads, n_uops, warmup),
    ]
    return CampaignSpec.union("reproduce", *parts,
                              meta=_meta(workloads, n_uops, warmup))


def scenario_sweep_campaign(
    workloads: tuple[str, ...] | None = None,
    n_uops: int = 12_000,
    warmup: int = 6_000,
) -> CampaignSpec:
    """Sweep *workload* axes: predictor families across scenario knobs.

    The default grid crosses pointer-chase depth × branch entropy × value
    locality (12 scenario workloads) with four predictor families, plus
    baselines — the design-space exploration the ROADMAP's "as many
    scenarios as you can imagine" asks for.  Pass explicit workloads
    (catalog or scenario names) to resweep a subset.
    """
    if workloads is None:
        workloads = tuple(scenario_axis(chase=(1, 4, 8), entropy=(5, 50),
                                        locality=(90, 40)))
    predictors = ["lvp", "2dstride", "vtage", "vtage-2dstride"]
    return CampaignSpec.union(
        "scenario-sweep",
        AxisBlock.make(
            {"predictor": predictors, "workload": list(workloads)},
            base={"recovery": "squash", **_sizes(n_uops, warmup)},
        ),
        baseline_block(workloads, n_uops, warmup),
        meta=_meta(workloads, n_uops, warmup,
                   predictors=tuple(predictors)),
    )


def _meta(workloads, n_uops, warmup, **extra) -> dict:
    return {"workloads": tuple(workloads), "n_uops": n_uops,
            "warmup": warmup, **extra}


# ---------------------------------------------------------------------------
# Renderers: CampaignResult -> text (the aggregation hooks in action).
# ---------------------------------------------------------------------------


def render_speedup_matrix(
    result: CampaignResult,
    predictors: tuple[str, ...],
    title: str,
    **fixed,
) -> str:
    """Workload × predictor speedup table straight off a campaign result."""
    meta = result.spec.meta_dict()
    workloads = meta["workloads"]
    columns = {
        p: result.speedup_by_workload(predictor=p, **fixed) for p in predictors
    }
    rows = [
        [w] + [f"{columns[p][w]:.3f}" for p in predictors] for w in workloads
    ]
    rows.append(
        ["gmean"]
        + [f"{geometric_mean(columns[p].values()):.3f}" for p in predictors]
    )
    return format_table(["benchmark"] + list(predictors), rows, title=title)


def render_scenario_sweep(result: CampaignResult) -> str:
    predictors = result.spec.meta_dict().get(
        "predictors", ("lvp", "2dstride", "vtage", "vtage-2dstride"))
    return render_speedup_matrix(
        result, tuple(predictors),
        "Scenario sweep: speedup over no-VP baseline "
        "(FPC, squash at commit; scenario-c<chase>-e<entropy>-l<locality>)",
    )


@dataclass(frozen=True)
class CampaignDef:
    """Registry entry: how to build (and optionally render) a campaign."""

    name: str
    help: str
    build: Callable[..., CampaignSpec]
    render: Callable[[CampaignResult], str] | None = None


CAMPAIGNS: dict[str, CampaignDef] = {
    d.name: d
    for d in (
        CampaignDef("fig3", "oracle speedup upper bound (Figure 3)",
                    figure3_campaign, lambda r: figures.figure3(r).text),
        CampaignDef("fig4", "squash-at-commit predictor grid (Figure 4)",
                    figure4_campaign, lambda r: figures.figure4(r).text),
        CampaignDef("fig5", "selective-reissue predictor grid (Figure 5)",
                    figure5_campaign, lambda r: figures.figure5(r).text),
        CampaignDef("fig6", "VTAGE with/without FPC (Figure 6)",
                    figure6_campaign, lambda r: figures.figure6(r).text),
        CampaignDef("fig7", "hybrid predictors (Figure 7)",
                    figure7_campaign, lambda r: figures.figure7(r).text),
        CampaignDef("reproduce", "union of every figure grid (the full run)",
                    reproduce_campaign, None),
        CampaignDef("scenario-sweep",
                    "predictors × scenario workload knobs (chase/entropy/locality)",
                    scenario_sweep_campaign, render_scenario_sweep),
    )
}
