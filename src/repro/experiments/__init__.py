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
