"""Unit tests for the gDiff stacking predictor."""

from repro.core.confidence import ConfidencePolicy
from repro.experiments.runner import make_predictor
from repro.pipeline.core import simulate
from repro.predictors.base import PredictionContext
from repro.predictors.gdiff import GDiffPredictor
from repro.predictors.lvp import LastValuePredictor
from repro.workloads.catalog import build_trace

import pytest

#: The six workloads of the benchmark grid.
GRID_WORKLOADS = ("gzip", "gcc", "wupwise", "crafty", "milc", "h264ref")


class TestGDiff:
    def test_learns_global_stride_relation(self):
        """Producer at distance 1 with a constant offset: the classic gDiff
        pattern 'result = previous dynamic instruction's result + 10'."""
        gdiff = GDiffPredictor(entries=64, confidence=ConfidencePolicy())
        ctx = PredictionContext()
        hits = used = 0
        base = 0
        for i in range(400):
            base += 7
            # µop A produces `base`.
            pred_a = gdiff.lookup(0x10, ctx)
            gdiff.speculate(0x10, pred_a)
            gdiff.train(0x10, base, pred_a)
            # µop B produces base + 10, i.e. history[0] + 10.
            pred_b = gdiff.lookup(0x20, ctx)
            gdiff.speculate(0x20, pred_b)
            if pred_b is not None and pred_b.confident:
                used += 1
                hits += pred_b.value == (base + 10) & ((1 << 64) - 1)
            gdiff.train(0x20, base + 10, pred_b)
        assert used > 100
        assert hits == used

    def test_falls_back_to_backing_predictor(self):
        backing = LastValuePredictor(entries=64, confidence=ConfidencePolicy())
        gdiff = GDiffPredictor(backing=backing, entries=64,
                               confidence=ConfidencePolicy())
        ctx = PredictionContext()
        confident_const = 0
        for _ in range(60):
            pred = gdiff.lookup(0x30, ctx)
            gdiff.speculate(0x30, pred)
            if pred is not None and pred.confident and pred.value == 5:
                confident_const += 1
            gdiff.train(0x30, 5, pred)
        assert confident_const > 20  # the LVP side carries the constant

    def test_unconfident_own_prediction_defers_to_confident_backing(self):
        """A tag hit with an unconfident global stride must not mask the
        backing predictor's confident prediction."""
        backing = LastValuePredictor(entries=64, confidence=ConfidencePolicy())
        gdiff = GDiffPredictor(backing=backing, entries=64,
                               confidence=ConfidencePolicy())
        ctx = PredictionContext()
        for _ in range(20):
            pred = gdiff.lookup(0x50, ctx)
            gdiff.speculate(0x50, pred)
            gdiff.train(0x50, 9, pred)
        idx = gdiff.lookup(0x50, ctx).payload[0]
        gdiff._conf[idx] = 0  # own entry hits the tag but is unconfident
        pred = gdiff.lookup(0x50, ctx)
        assert pred.payload[1] is not None
        assert pred.confident and pred.value == 9
        assert pred.source == backing.name

    def test_squash_drops_pending_repairs(self):
        gdiff = GDiffPredictor(entries=64)
        ctx = PredictionContext()
        for value in (1, 2, 3):
            pred = gdiff.lookup(0x40, ctx)
            gdiff.speculate(0x40, pred)
            gdiff.train(0x40, value, pred)
        pred = gdiff.lookup(0x40, ctx)
        gdiff.speculate(0x40, pred)  # in-flight occurrence, then squashed
        gdiff.on_squash()
        assert not gdiff._pending
        # Training afterwards must not crash or misalign slots.
        pred = gdiff.lookup(0x40, ctx)
        gdiff.speculate(0x40, pred)
        gdiff.train(0x40, 4, pred)
        assert gdiff._history()[0] == 4

    def test_storage_includes_backing(self):
        backing = LastValuePredictor(entries=64)
        alone = GDiffPredictor(entries=64).storage_bits()
        stacked = GDiffPredictor(backing=backing, entries=64).storage_bits()
        assert stacked == alone + backing.storage_bits()

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            GDiffPredictor(entries=100)
        with pytest.raises(ValueError):
            GDiffPredictor(history_depth=0)


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
def test_gdiff_covers_at_least_its_backing_2dstride(workload):
    """gDiff+2D-Stride must never cover less than plain 2D-Stride."""
    trace = build_trace(workload, 8000)
    coverage = {
        name: simulate(trace, make_predictor(name), warmup=2000,
                       workload=workload).coverage
        for name in ("gdiff", "2dstride")
    }
    assert coverage["2dstride"] > 0
    assert coverage["gdiff"] >= coverage["2dstride"]


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
