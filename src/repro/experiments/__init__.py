"""Experiment drivers: one callable per table/figure of the paper.

* :mod:`repro.experiments.runner` — predictor factories, single runs,
  baseline caching;
* :mod:`repro.experiments.campaigns` — the declarative campaign spec
  behind each figure sweep (plus ``reproduce`` and ``scenario-sweep``);
* :mod:`repro.experiments.tables` — Tables 1-3;
* :mod:`repro.experiments.figures` — Figures 1, 3, 4, 5, 6, 7;
* :mod:`repro.experiments.reproduce` — the everything driver that
  prints the paper-vs-reproduction report.
"""

from repro.experiments.campaigns import (
    CAMPAIGNS,
    CampaignDef,
    reproduce_campaign,
    scenario_sweep_campaign,
)
from repro.experiments.figures import (
    FigureResult,
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    PREDICTOR_NAMES,
    baseline_result,
    make_confidence,
    make_predictor,
    run_workload,
)
from repro.experiments.tables import table1, table1_rows, table2, table3

__all__ = [
    "CAMPAIGNS",
    "CampaignDef",
    "DEFAULT_MEASURE",
    "DEFAULT_WARMUP",
    "FigureResult",
    "PREDICTOR_NAMES",
    "baseline_result",
    "reproduce_campaign",
    "scenario_sweep_campaign",
    "figure1",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "make_confidence",
    "make_predictor",
    "run_workload",
    "table1",
    "table1_rows",
    "table2",
    "table3",
]
