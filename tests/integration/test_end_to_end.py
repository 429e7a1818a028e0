"""Integration tests: workloads through the full simulator stack.

These use small slices so the whole suite stays fast; the benchmark harness
runs the full-size experiments.
"""

import itertools

import pytest

from repro import quick_run
from repro.engine.api import run_jobs
from repro.engine.job import SimJob
from repro.experiments.runner import (
    PREDICTOR_NAMES,
    baseline_result,
    make_predictor,
    run_workload,
)
from repro.workloads.names import ALL_WORKLOADS

SMALL = dict(n_uops=6000, warmup=3000)


class TestQuickRun:
    def test_quick_run_returns_result(self):
        result = quick_run("gzip", predictor="vtage", n_uops=4000, warmup=2000)
        assert result.n_uops == 4000
        assert result.ipc > 0
        assert 0 <= result.coverage <= 1
        assert 0 <= result.accuracy <= 1

    def test_unknown_predictor_raises(self):
        with pytest.raises(ValueError):
            quick_run("gzip", predictor="martian")

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            quick_run("not-a-benchmark")


class TestPredictorFactories:
    @pytest.mark.parametrize("name", [
        "lvp", "stride", "2dstride", "fcm", "dfcm",
        "vtage", "vtage-2dstride", "fcm-2dstride",
    ])
    def test_factory_builds_and_runs(self, name):
        result = run_workload("vpr", make_predictor(name), **SMALL)
        assert result.n_uops == SMALL["n_uops"]
        assert result.vp_eligible > 0

    def test_registered_names_are_distinct(self):
        """Every registered name is its own configuration: at bench size
        (8k µops after 4k warm-up, FPC + squash), each pair of names
        differs in cycles or used predictions on some grid workload."""
        workloads = ("gzip", "wupwise", "crafty")
        jobs = [SimJob.make(w, name, n_uops=8000, warmup=4000)
                for name in PREDICTOR_NAMES for w in workloads]
        signature = {}
        for job, result in zip(jobs, run_jobs(jobs)):
            signature.setdefault(job.predictor, []).append(
                (result.cycles, result.vp_used))
        same = [(a, b) for a, b in itertools.combinations(PREDICTOR_NAMES, 2)
                if signature[a] == signature[b]]
        assert same == []

    def test_none_factory(self):
        assert make_predictor("none") is None

    def test_fpc_flag_changes_confidence(self):
        fpc = make_predictor("lvp", fpc=True)
        base = make_predictor("lvp", fpc=False)
        assert "FPC" in fpc.confidence.describe()
        assert "FPC" not in base.confidence.describe()

    def test_reissue_uses_reissue_vector(self):
        predictor = make_predictor("lvp", fpc=True, recovery="reissue")
        assert "1/8" in predictor.confidence.describe()


class TestCrossWorkload:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_every_workload_simulates(self, name):
        result = run_workload(name, make_predictor("vtage"), n_uops=3000,
                              warmup=1500)
        assert result.n_uops == 3000
        assert result.cycles > 0
        assert result.ipc < 8.01  # cannot exceed machine width

    def test_oracle_dominates_all_predictors(self):
        for name in ("gzip", "wupwise", "hmmer"):
            base = baseline_result(name, **SMALL)
            oracle = run_workload(name, make_predictor("oracle"), **SMALL)
            vtage = run_workload(name, make_predictor("vtage"), **SMALL)
            assert oracle.ipc >= base.ipc * 0.99
            assert oracle.ipc >= vtage.ipc * 0.97


class TestRecoveryModes:
    def test_both_recovery_modes_run(self):
        for recovery in ("squash", "reissue"):
            result = run_workload(
                "crafty",
                make_predictor("2dstride", fpc=False, recovery=recovery),
                recovery=recovery,
                **SMALL,
            )
            assert result.recovery == recovery

    def test_fpc_reduces_squashes(self):
        baseline_conf = run_workload(
            "crafty", make_predictor("2dstride", fpc=False), **SMALL
        )
        fpc_conf = run_workload(
            "crafty", make_predictor("2dstride", fpc=True), **SMALL
        )
        assert fpc_conf.vp_squashes <= baseline_conf.vp_squashes
        assert fpc_conf.accuracy >= baseline_conf.accuracy - 0.005


class TestDeterminism:
    def test_same_run_twice_identical(self):
        a = run_workload("gzip", make_predictor("vtage"), **SMALL)
        b = run_workload("gzip", make_predictor("vtage"), **SMALL)
        assert a.cycles == b.cycles
        assert a.vp_used == b.vp_used
        assert a.vp_correct_used == b.vp_correct_used
