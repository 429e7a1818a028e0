"""Experiment plumbing: predictor construction, single runs and baselines.

Every run composes three things: a predictor configuration (by
name), a set of workloads, and the core's recovery mode.  All runs go
through the experiment engine (:mod:`repro.engine`): jobs are declarative
:class:`~repro.engine.job.SimJob` specs, executed serially or on a
``REPRO_JOBS``-sized process pool, and memoised in the engine's result
cache.  Baseline (no-VP) runs are therefore computed once per
(workload, slice, core-config) — the config is part of the content key, so
speedups under a custom :class:`CoreConfig` never compare against a
default-config baseline.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.confidence import (
    ConfidencePolicy,
    ForwardProbabilisticCounters,
)
from repro.core.hybrid import HybridPredictor
from repro.core.vtage import VTAGEPredictor
from repro.engine.api import Engine, default_engine
from repro.engine.job import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    PREDICTOR_NAMES,
    SimJob,
)
from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.core import simulate
from repro.pipeline.result import SimResult
from repro.predictors.base import ValuePredictor
from repro.predictors.fcm import DifferentialFCMPredictor, FCMPredictor
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.stride import StridePredictor, TwoDeltaStridePredictor
from repro.workloads.catalog import build_trace


def make_confidence(fpc: bool, recovery: str) -> ConfidencePolicy:
    """The paper's two confidence configurations (Section 5/7.1.1)."""
    if not fpc:
        return ConfidencePolicy(bits=3)
    if recovery == "reissue":
        return ForwardProbabilisticCounters.for_reissue()
    return ForwardProbabilisticCounters.for_squash()


def make_predictor(
    name: str,
    fpc: bool = True,
    recovery: str = "squash",
    entries: int = 8192,
) -> ValuePredictor | None:
    """Build a predictor configuration by its experiment name."""
    if name == "none":
        return None
    if name == "oracle":
        return OraclePredictor()
    if name == "lvp":
        return LastValuePredictor(entries=entries, confidence=make_confidence(fpc, recovery))
    if name == "stride":
        return StridePredictor(entries=entries, confidence=make_confidence(fpc, recovery))
    if name == "2dstride":
        return TwoDeltaStridePredictor(
            entries=entries, confidence=make_confidence(fpc, recovery)
        )
    if name == "fcm":
        return FCMPredictor(entries=entries, confidence=make_confidence(fpc, recovery))
    if name == "dfcm":
        return DifferentialFCMPredictor(
            entries=entries, confidence=make_confidence(fpc, recovery)
        )
    if name == "vtage":
        return VTAGEPredictor(
            base_entries=entries,
            tagged_entries=max(64, entries // 8),
            confidence=make_confidence(fpc, recovery),
        )
    if name == "vtage-2dstride":
        return HybridPredictor(
            VTAGEPredictor(
                base_entries=entries,
                tagged_entries=max(64, entries // 8),
                confidence=make_confidence(fpc, recovery),
            ),
            TwoDeltaStridePredictor(
                entries=entries, confidence=make_confidence(fpc, recovery)
            ),
            name="VTAGE-2DStr",
        )
    if name == "fcm-2dstride":
        return HybridPredictor(
            FCMPredictor(entries=entries, confidence=make_confidence(fpc, recovery)),
            TwoDeltaStridePredictor(
                entries=entries, confidence=make_confidence(fpc, recovery)
            ),
            name="o4FCM-2DStr",
        )
    raise ValueError(f"unknown predictor {name!r}; pick from {PREDICTOR_NAMES}")


def run_workload(
    workload: str,
    predictor: ValuePredictor | str | None,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    recovery: str = "squash",
    config: CoreConfig | None = None,
    fpc: bool = True,
    entries: int = 8192,
    engine: Engine | None = None,
) -> SimResult:
    """Simulate one workload on a fresh core with *predictor*.

    *predictor* may be a configuration name (or ``None`` for the no-VP
    baseline), in which case the run is a declarative job routed through
    the engine — cached, and parallelisable in batches.  Passing a live
    :class:`ValuePredictor` instance is the escape hatch for custom
    predictor objects; those runs bypass the engine since an arbitrary
    instance has no content key.
    """
    if predictor is None or isinstance(predictor, str):
        job = SimJob.make(
            workload, predictor or "none", fpc=fpc, recovery=recovery,
            entries=entries, n_uops=n_uops, warmup=warmup, config=config,
        )
        return (engine or default_engine()).run_job(job)
    trace = build_trace(workload, warmup + n_uops)
    if config is None:
        config = CoreConfig(
            recovery=RecoveryMode.SELECTIVE_REISSUE
            if recovery == "reissue"
            else RecoveryMode.SQUASH_COMMIT
        )
    return simulate(trace, predictor, config=config, warmup=warmup, workload=workload)


def baseline_job(
    workload: str,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    config: CoreConfig | None = None,
) -> SimJob:
    """The no-VP baseline job every speedup is measured against.

    The job's content key includes the full core configuration, so a
    custom-config run gets a matching custom-config baseline.  Recovery is
    normalised to squash-at-commit: with no predictor the VP recovery
    mechanism never fires, and normalising lets both recovery sweeps share
    one cached baseline per config.
    """
    if config is not None and config.recovery is not RecoveryMode.SQUASH_COMMIT:
        config = replace(config, recovery=RecoveryMode.SQUASH_COMMIT)
    return SimJob.make(workload, "none", recovery="squash",
                       n_uops=n_uops, warmup=warmup, config=config)


def baseline_result(
    workload: str,
    n_uops: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    config: CoreConfig | None = None,
    engine: Engine | None = None,
) -> SimResult:
    job = baseline_job(workload, n_uops=n_uops, warmup=warmup, config=config)
    return (engine or default_engine()).run_job(job)

