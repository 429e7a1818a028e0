"""Per-phase profiling accounting, the ``--profile`` CLI flag, and the
CLI's everyday verbs."""

import pytest

from repro.cli import main as cli_main
from repro.pipeline import ckernel, fastsim
from repro.util import profiling
from repro.workloads import catalog


@pytest.fixture(autouse=True)
def profiling_off():
    yield
    profiling.disable()


class TestPhaseAccounting:
    def test_disabled_records_nothing(self):
        profiling.disable()
        with profiling.phase("x"):
            pass
        profiling.enable()          # reset + enable
        assert profiling.snapshot() == {}

    def test_phases_accumulate_seconds_and_calls(self):
        profiling.enable()
        for _ in range(3):
            with profiling.phase("work"):
                pass
        snap = profiling.snapshot()
        assert snap["work"]["calls"] == 3
        assert snap["work"]["seconds"] >= 0.0

    def test_build_trace_records_one_build(self):
        catalog.clear_trace_cache()
        profiling.enable()
        catalog.build_trace("gzip", 1000)
        snap = profiling.snapshot()
        assert snap["trace-build"]["calls"] == 1
        catalog.build_trace("gzip", 1000)  # cache hit: no new phases
        assert profiling.snapshot()["trace-build"]["calls"] == 1
        catalog.clear_trace_cache()

    def test_format_report_orders_by_time(self):
        profiling.enable()
        profiling.add("slow", 2.0)
        profiling.add("fast", 0.5)
        report = profiling.format_report()
        assert report.index("slow") < report.index("fast")

    def test_empty_report_is_graceful(self):
        profiling.enable()
        assert "no phases" in profiling.format_report()


class TestProfileFlag:
    def test_run_profile_prints_phases(self, capsys):
        assert cli_main(["run", "gzip", "--predictor", "none",
                         "--uops", "1000", "--warmup", "200",
                         "--profile"]) == 0
        err = capsys.readouterr().err
        assert "profile (wall-clock per phase" in err
        assert "simulate" in err

    @pytest.mark.parametrize("predictor", ("none", "vtage-2dstride"))
    def test_run_profile_names_fallbacks(self, capsys, predictor):
        """``--profile`` ends with the loop and the fallback counts of this
        process (``-j 1``: the runs are in it).  A hybrid takes the spec
        loop as ``unsupported-predictor``; the ``none`` baseline it is
        compared with, like any kernel family, records nothing when the
        kernel loads and ``no-compiler`` when it does not."""
        fastsim.reset_fallback_stats()
        assert cli_main(["-j", "1", "run", "gzip", "--predictor", predictor,
                         "--uops", "700", "--warmup", "100",
                         "--profile"]) == 0
        kernel = ckernel.kernel_available()
        expected = {} if kernel else {"no-compiler": 1}
        if predictor != "none":
            expected["unsupported-predictor:HybridPredictor"] = 1
        counts = ",".join(f"{reason}={count}"
                          for reason, count in sorted(expected.items()))
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == (f"profile: kernel={'c' if kernel else 'off'} "
                        f"fastsim-fallbacks={counts or 'none'}")

    def test_campaign_run_profile_prints_phases(self, capsys, tmp_path):
        assert cli_main(["campaign", "run", "fig4",
                         "--workloads", "gzip", "--uops", "800",
                         "--warmup", "200", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "profile (wall-clock per phase" in err
        assert "simulate" in err


class TestCLI:
    def test_list_command(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vtage-2dstride" in out
        assert "164.gzip" in out

    def test_table_command(self, capsys):
        from repro.cli import main
        assert main(["table", "1"]) == 0
        assert "120.8" in capsys.readouterr().out

    def test_run_command(self, capsys):
        from repro.cli import main
        code = main(["run", "vpr", "--predictor", "lvp",
                     "--uops", "2000", "--warmup", "1000"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_figure_command_small(self, capsys):
        from repro.cli import main
        code = main(["figure", "3", "--workloads", "vpr",
                     "--uops", "2000", "--warmup", "1000"])
        assert code == 0
        assert "Figure 3" in capsys.readouterr().out
