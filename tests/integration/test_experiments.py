"""Integration tests for the table/figure drivers (small slices)."""

import pytest

from repro.engine.api import Engine, reset_default_engine
from repro.engine.cache import ResultCache
from repro.engine.campaign import run_campaign
from repro.engine.executors import SerialExecutor
from repro.experiments import campaigns, figures, reproduce, tables
from repro.workloads import catalog
from repro.workloads.names import ALL_WORKLOADS
from repro.workloads.store import TRACE_DIR_ENV

TINY = dict(workloads=("gzip", "crafty", "wupwise"), n_uops=5000, warmup=2500)


class TestTables:
    def test_table1_storage_within_one_percent_of_paper(self):
        for row in tables.table1_rows():
            assert row.relative_error < 0.01, row

    def test_table1_renders(self):
        text = tables.table1()
        assert "VTAGE" in text and "120.8" in text

    def test_table2_mentions_core_structures(self):
        text = tables.table2()
        assert "256-entry ROB" in text
        assert "128-entry IQ" in text
        assert "TAGE" in text

    def test_table3_lists_19_benchmarks(self):
        text = tables.table3()
        assert "INT: 12" in text and "FP: 7" in text
        assert "429.mcf" in text and "464.h264ref" in text


class TestFigure1:
    def test_back_to_back_fractions(self):
        fig = figures.figure1(workloads=ALL_WORKLOADS, n_uops=4000)
        fractions = fig.series["fractions"]
        assert len(fractions) == 19
        assert all(0.0 <= f <= 1.0 for f in fractions.values())
        # The Section 3.2 observation: a noticeable fraction of eligible
        # µops are back-to-back in at least some benchmarks.
        assert fig.series["max"] > 0.01

    def test_critical_path_table(self):
        fig = figures.figure1(workloads=("gzip",), n_uops=2000)
        assert "VTAGE" in fig.text
        assert "o4-FCM" in fig.text

    def test_reproduce_generates_each_trace_once(self, tmp_path,
                                                 monkeypatch, capsys):
        """Figure 1 measures the traces the run simulated: a serial
        ``reproduce`` run generates one trace per workload, no more."""
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        catalog.clear_trace_cache()
        before = catalog.generation_count()
        try:
            assert reproduce.main(["300", "200"]) == 0
        finally:
            reset_default_engine()
            catalog.clear_trace_cache()
        assert catalog.generation_count() - before == len(ALL_WORKLOADS)
        assert "200 warm-up + 300 measured" in capsys.readouterr().out


class TestFigure4and5:
    @pytest.fixture(scope="class")
    def fig4(self):
        return figures.figure4(run_campaign(campaigns.figure4_campaign(**TINY)))

    def test_grid_structure(self, fig4):
        assert set(fig4.series) == {"baseline", "FPC"}
        for scheme_data in fig4.series.values():
            assert set(scheme_data) == set(figures.SINGLE_SCHEMES)

    def test_figure5_reissue_grid(self):
        fig5 = figures.figure5(run_campaign(campaigns.figure5_campaign(
            workloads=("crafty",), n_uops=5000, warmup=2500)))
        assert "reissue" in fig5.text.lower() or "Figure 5" in fig5.text


class TestFigure6and7:
    def test_figure6_series(self):
        fig = figures.figure6(run_campaign(campaigns.figure6_campaign(
            workloads=("gzip", "crafty"), n_uops=5000, warmup=2500)))
        assert set(fig.series) == {"baseline", "FPC"}
        assert "coverage" in fig.series["FPC"]


class TestOneRenderPath:
    """Figures 3-7 are views of whichever campaign result holds their
    cells: their own campaign or the ``reproduce`` union."""

    SMALL = dict(workloads=("gzip", "crafty"), n_uops=1500, warmup=800)

    @pytest.fixture(scope="class")
    def union(self):
        engine = Engine(SerialExecutor(), ResultCache())
        spec = campaigns.reproduce_campaign(**self.SMALL)
        return engine, run_campaign(spec, engine=engine)

    @pytest.mark.parametrize("which", ["3", "4", "5", "6", "7"])
    def test_own_campaign_and_union_render_alike(self, union, which):
        engine, result = union
        spec = getattr(campaigns, f"figure{which}_campaign")(**self.SMALL)
        render = getattr(figures, f"figure{which}")
        own = render(run_campaign(spec, engine=engine))
        assert own.text == render(result).text

    def test_reproduce_simulates_only_in_its_campaign(self, monkeypatch,
                                                      capsys):
        real_run_jobs = Engine.run_jobs
        batches = []

        def run_jobs_once(self, jobs, on_result=None):
            if batches:
                raise AssertionError("simulated after the campaign ran")
            batches.append(len(jobs))
            return real_run_jobs(self, jobs, on_result)

        monkeypatch.setattr(Engine, "run_jobs", run_jobs_once)
        monkeypatch.setattr(
            reproduce, "reproduce_campaign",
            lambda n_uops, warmup: campaigns.reproduce_campaign(
                self.SMALL["workloads"], n_uops, warmup))
        try:
            assert reproduce.main(["1500", "800"]) == 0
        finally:
            reset_default_engine()
        out = capsys.readouterr().out
        assert len(batches) == 1
        for figure_id in ("fig3", "fig4", "fig5", "fig6", "fig7"):
            assert f"### {figure_id}:" in out
