"""repro — reproduction of Perais & Seznec, "Practical Data Value
Speculation for Future High-end Processors", HPCA 2014.

The package implements the paper's contributions and every substrate its
evaluation depends on:

* :mod:`repro.core` — VTAGE, Forward Probabilistic Counters and the
  VTAGE + 2D-Stride hybrid (the paper's contributions);
* :mod:`repro.predictors` — LVP, Stride, 2-Delta Stride, order-n FCM,
  D-FCM and the oracle baseline;
* :mod:`repro.branch` — TAGE, BTB, return address stack;
* :mod:`repro.memory` — caches, DRAM, stride prefetcher, store sets;
* :mod:`repro.pipeline` — the Table 2 out-of-order core model with
  squash-at-commit and selective-reissue VP recovery;
* :mod:`repro.workloads` — synthetic SPEC-substitute µop traces (Table 3);
* :mod:`repro.analysis` / :mod:`repro.experiments` — metrics, analytic
  cost models, and the per-figure/table reproduction drivers.

No package ``__init__`` imports a submodule: import names from the
module that defines them (``repro.pipeline.config.CoreConfig``,
``repro.core.vtage.VTAGEPredictor``), so a process loads only what it
runs.  A daemon, which never simulates, imports neither numpy nor the
simulator.

Quickstart::

    from repro import quick_run
    result = quick_run("h264ref", predictor="vtage-2dstride")
    print(result.summary_line())
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.pipeline.result import SimResult

__version__ = "1.0.0"

__all__ = ["quick_run", "__version__"]


def quick_run(
    workload: str,
    predictor: str = "vtage",
    n_uops: int = 40_000,
    warmup: int = 10_000,
    fpc: bool = True,
    recovery: str = "squash",
) -> SimResult:
    """One-call simulation of a named workload with a named predictor.

    *predictor* accepts the names used throughout the experiments: "none",
    "oracle", "lvp", "2dstride", "fcm", "vtage", "vtage-2dstride",
    "fcm-2dstride".
    """
    from repro.experiments.runner import make_predictor, run_workload

    return run_workload(
        workload,
        make_predictor(predictor, fpc=fpc, recovery=recovery),
        n_uops=n_uops,
        warmup=warmup,
        recovery=recovery,
    )
