"""Campaign specs: expansion, aggregation, the disk cache."""

import gc
import logging

import pytest

from repro.engine import job as job_mod
from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.campaign import (
    AxisBlock,
    CampaignSpec,
    run_campaign,
)
from repro.engine.executors import PoolExecutor, SerialExecutor
from repro.engine.job import SimJob
from repro.pipeline.config import CoreConfig
from repro.workloads.scenarios import scenario_axis

TINY = {"n_uops": 1500, "warmup": 800}


def tiny_spec(name="tiny") -> CampaignSpec:
    return CampaignSpec.union(
        name,
        AxisBlock.make(
            {"predictor": ["lvp", "vtage"], "workload": ["gzip", "crafty"]},
            base=TINY,
        ),
        AxisBlock.make(
            {"workload": ["gzip", "crafty"]},
            base={"predictor": "none", **TINY},
        ),
    )


def fresh_engine(directory=None) -> Engine:
    return Engine(SerialExecutor(), ResultCache(directory))


# ---------------------------------------------------------------------------
# Spec expansion.
# ---------------------------------------------------------------------------

class TestExpansion:
    def test_product_expands_cross_product(self):
        spec = CampaignSpec.make(
            "p", {"predictor": ["lvp", "vtage"], "workload": ["gzip", "crafty"]},
            base=TINY,
        )
        points = spec.points()
        assert len(points) == 4
        assert {(p["predictor"], p["workload"]) for p in points} == {
            ("lvp", "gzip"), ("lvp", "crafty"),
            ("vtage", "gzip"), ("vtage", "crafty"),
        }

    def test_points_are_normalised(self):
        [point] = CampaignSpec.make("p", {"workload": ["gzip"]}).points()
        # Every SimJob.make keyword is present, with its default value.
        assert point["predictor"] == "none"
        assert point["fpc"] is True
        assert point["recovery"] == "squash"
        assert point["entries"] == 8192
        assert point["seed"] is None
        assert point["config"] is None

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign axes"):
            AxisBlock.make({"wrkload": ["gzip"]})

    def test_axes_and_base_must_not_overlap(self):
        with pytest.raises(ValueError, match="both set"):
            AxisBlock.make({"workload": ["gzip"]}, base={"workload": "gzip"})

    def test_workload_is_mandatory(self):
        with pytest.raises(ValueError, match="workload"):
            CampaignSpec.make("w", {"predictor": ["lvp"]}).points()

    def test_union_concatenates_and_run_dedupes(self):
        spec = tiny_spec()
        assert len(spec.points()) == 6
        assert len(spec.unique_jobs()) == 6
        doubled = CampaignSpec.union("d", spec, spec)
        assert len(doubled.points()) == 12
        assert len(doubled.unique_jobs()) == 6

    def test_config_axis_values(self):
        spec = CampaignSpec.make(
            "c", {"workload": ["gzip"],
                  "config": [None, CoreConfig(issue_width=4)]},
            base=TINY,
        )
        assert len(spec.unique_jobs()) == 2

    def test_scenario_names_work_as_workload_axis(self):
        spec = CampaignSpec.make(
            "s", {"workload": scenario_axis(chase=(1,), entropy=(5, 50),
                                            locality=(90,))},
            base={"predictor": "lvp", **TINY},
        )
        results = run_campaign(spec, engine=fresh_engine())
        assert len(results.results_by_key) == 2


# ---------------------------------------------------------------------------
# Execution and aggregation hooks.
# ---------------------------------------------------------------------------

class TestCampaignResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(tiny_spec(), engine=fresh_engine())

    def test_results_align_with_points(self, result):
        assert len(result.results) == len(result.points)
        for point, sim in result:
            assert sim.workload == point["workload"]

    def test_by_pivots_in_order(self, result):
        by_workload = result.by("workload", predictor="lvp")
        assert list(by_workload) == ["gzip", "crafty"]
        with pytest.raises(KeyError, match="ambiguous at 'gzip'"):
            result.by("workload")

    def test_speedup_by_workload(self, result):
        speedups = result.speedup_by_workload(predictor="vtage")
        assert set(speedups) == {"gzip", "crafty"}
        for value in speedups.values():
            assert value > 0.0

    def test_progress_events_cover_every_job(self):
        events = []
        run_campaign(tiny_spec(), engine=fresh_engine(),
                     progress=events.append)
        assert [e.done for e in events] == list(range(1, 7))
        assert events[-1].total == 6

    def test_speedup_requires_baselines(self):
        spec = CampaignSpec.make(
            "no-base", {"predictor": ["lvp"], "workload": ["gzip"]},
            base=TINY,
        )
        result = run_campaign(spec, engine=fresh_engine())
        with pytest.raises(KeyError, match="baseline"):
            result.speedup_by_workload(predictor="lvp")

    def test_unjournaled_run_is_one_batch(self, monkeypatch, tmp_path):
        """The engine makes each result durable as it lands, so a
        campaign goes to the executor as a single batch (full
        parallelism), with a disk cache or without one."""
        for engine in (fresh_engine(), fresh_engine(tmp_path)):
            batches = []
            original = engine.run_jobs

            def spy(jobs, on_result=None):
                batches.append(len(jobs))
                return original(jobs, on_result)

            monkeypatch.setattr(engine, "run_jobs", spy)
            run_campaign(tiny_spec(), engine=engine)
            assert batches == [6]


# ---------------------------------------------------------------------------
# The checkpoint is the result cache.
# ---------------------------------------------------------------------------

class TestCheckpointIsTheCache:
    def test_replay_warms_the_cache(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, engine=fresh_engine(tmp_path))
        cold_engine = fresh_engine(tmp_path)
        job_mod.reset_run_count()
        result = run_campaign(spec, engine=cold_engine)
        assert job_mod.run_count() == 0
        assert result.stats == {"total": 6, "executed": 0, "cache_hits": 6}
        assert cold_engine.cache.directory == tmp_path
        for sim_job in spec.unique_jobs().values():
            assert cold_engine.cache.get(sim_job) is not None

    def interrupt_after(self, engine, k):
        """Run the tiny campaign; its progress callback raises once *k*
        results were reported."""

        class Interrupted(Exception):
            pass

        def progress(event):
            if event.done == k:
                raise Interrupted

        with pytest.raises(Interrupted):
            run_campaign(tiny_spec(), engine=engine, progress=progress)

    def test_serial_interruption_leaves_exactly_the_reported_results(
            self, tmp_path):
        """Each result is on disk before it is reported, and the batch
        stops at the interruption: k reported results, k entries."""
        self.interrupt_after(fresh_engine(tmp_path), 2)
        assert len(ResultCache(tmp_path).disk_entries()) == 2

    def test_pool_interruption_propagates_and_leaves_the_reported_results(
            self, tmp_path, caplog):
        """On a pool the progress callback's exception leaves
        ``run_campaign`` with every reported result on disk; the batch's
        unfinished futures are cancelled, not failed at ``close``, so
        asyncio reports no exception as never retrieved.  The same pool
        then reruns the campaign: jobs still running take on new
        futures, and cancelled queued jobs are dropped."""
        engine = Engine(PoolExecutor(2), ResultCache(tmp_path))
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            try:
                self.interrupt_after(engine, 2)
                finished = len(ResultCache(tmp_path).disk_entries())
                rerun = run_campaign(tiny_spec(), engine=engine)
                depth = engine.executor._queue.depth
            finally:
                engine.executor.close()
            gc.collect()
        assert finished >= 2
        assert rerun.stats == {"total": 6, "executed": 6 - finished,
                               "cache_hits": finished}
        assert depth == 0
        clean = run_campaign(tiny_spec(), engine=fresh_engine())
        assert rerun.results == clean.results
        assert "never retrieved" not in caplog.text
