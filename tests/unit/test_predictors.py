"""Unit tests for the classical value predictors."""

import pytest

from repro.core.confidence import ConfidencePolicy
from repro.predictors.base import PredictionContext
from repro.predictors.fcm import DifferentialFCMPredictor, FCMPredictor
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.stride import StridePredictor, TwoDeltaStridePredictor


def drive(predictor, key, values, ctx=None):
    """Feed a value stream through lookup/speculate/train; report stats."""
    ctx = ctx if ctx is not None else PredictionContext()
    used = correct_used = raw_correct = 0
    for value in values:
        pred = predictor.lookup(key, ctx)
        if pred is not None:
            predictor.speculate(key, pred)
            if pred.value == value:
                raw_correct += 1
            if pred.confident:
                used += 1
                if pred.value == value:
                    correct_used += 1
        predictor.train(key, value, pred)
    return used, correct_used, raw_correct


class TestLVP:
    def test_learns_constant(self):
        lvp = LastValuePredictor(entries=64, confidence=ConfidencePolicy())
        used, correct, __ = drive(lvp, 0x40, [99] * 50)
        assert used > 30 and correct == used

    def test_never_confident_on_random_stream(self):
        lvp = LastValuePredictor(entries=64, confidence=ConfidencePolicy())
        used, __, __ = drive(lvp, 0x40, list(range(100)))
        assert used == 0

    def test_allocation_on_first_sight(self):
        lvp = LastValuePredictor(entries=64)
        ctx = PredictionContext()
        assert lvp.lookup(0x44, ctx) is None
        lvp.train(0x44, 7, None)
        pred = lvp.lookup(0x44, ctx)
        assert pred is not None and pred.value == 7

    def test_distinct_keys_do_not_false_hit(self):
        lvp = LastValuePredictor(entries=8)
        ctx = PredictionContext()
        for key in range(100):
            lvp.train(key, key, None)
        # Full tags: a lookup either misses or returns its own training.
        for key in range(100):
            pred = lvp.lookup(key, ctx)
            assert pred is None or pred.value == key

    def test_storage_matches_table1(self):
        lvp = LastValuePredictor(entries=8192)
        assert lvp.storage_kb() == pytest.approx(120.8, abs=0.05)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            LastValuePredictor(entries=100)


class TestStride:
    def test_learns_arithmetic_sequence(self):
        stride = StridePredictor(entries=64, confidence=ConfidencePolicy())
        used, correct, __ = drive(stride, 0x80, list(range(0, 500, 5)))
        assert used > 60 and correct == used

    def test_2delta_filters_one_off_jump(self):
        """After a single discontinuity, 2-delta keeps the old stride: only
        the jump itself mispredicts, everything after is correct again."""
        td = TwoDeltaStridePredictor(entries=64)
        seq = [0, 5, 10, 15, 100, 105, 110, 115]
        __, __, raw = drive(td, 0x80, seq)
        # Correct raw predictions: 15 (trained), then 105/110/115 right
        # after the jump because the predicting stride never latched 85.
        assert raw >= 4

    def test_plain_stride_mispredicts_twice_after_jump(self):
        plain = StridePredictor(entries=64)
        td = TwoDeltaStridePredictor(entries=64)
        seq = [0, 5, 10, 15, 20, 120, 125, 130, 135]
        __, __, raw_plain = drive(plain, 0x80, seq)
        __, __, raw_td = drive(td, 0x80, seq)
        assert raw_td >= raw_plain

    def test_speculative_chaining_in_flight(self):
        """Two in-flight occurrences: the second chains off the first's
        prediction (Section 3.2)."""
        stride = TwoDeltaStridePredictor(entries=64, confidence=ConfidencePolicy())
        ctx = PredictionContext()
        # Train: 10, 20, 30... until confident.
        preds = []
        for value in range(10, 200, 10):
            pred = stride.lookup(0x80, ctx)
            stride.speculate(0x80, pred)
            stride.train(0x80, value, pred)
        # Now two lookups WITHOUT intervening training.
        p1 = stride.lookup(0x80, ctx)
        stride.speculate(0x80, p1)
        p2 = stride.lookup(0x80, ctx)
        stride.speculate(0x80, p2)
        assert p2.value == p1.value + 10

    def test_squash_clears_speculative_state(self):
        stride = TwoDeltaStridePredictor(entries=64)
        ctx = PredictionContext()
        for value in range(10, 100, 10):
            pred = stride.lookup(0x80, ctx)
            stride.speculate(0x80, pred)
            stride.train(0x80, value, pred)
        p1 = stride.lookup(0x80, ctx)
        stride.speculate(0x80, p1)
        stride.on_squash()
        p2 = stride.lookup(0x80, ctx)
        # After the squash p2 re-predicts from committed state, like p1.
        assert p2.value == p1.value

    def test_storage_matches_table1(self):
        td = TwoDeltaStridePredictor(entries=8192)
        assert td.storage_kb() == pytest.approx(251.9, abs=0.05)


class TestFCM:
    def test_learns_periodic_pattern(self):
        fcm = FCMPredictor(entries=256, order=4, confidence=ConfidencePolicy())
        pattern = [3, 1, 4, 1, 5, 9, 2, 6]
        used, correct, raw = drive(fcm, 0xA0, pattern * 40)
        assert raw > 200  # predicts the cycle once learned
        assert used > 0 and correct == used

    def test_lvp_cannot_learn_that_pattern(self):
        lvp = LastValuePredictor(entries=256, confidence=ConfidencePolicy())
        pattern = [3, 1, 4, 1, 5, 9, 2, 6]
        used, __, __ = drive(lvp, 0xA0, pattern * 40)
        assert used == 0

    def test_vpt_hysteresis_resists_single_flip(self):
        fcm = FCMPredictor(entries=256, order=4, confidence=ConfidencePolicy())
        pattern = [3, 1, 4, 1, 5, 9, 2, 6]
        drive(fcm, 0xA0, pattern * 30)
        # One corrupted cycle, then the pattern resumes.
        drive(fcm, 0xA0, [7, 7, 7, 7, 7, 7, 7, 7])
        __, __, raw = drive(fcm, 0xA0, pattern * 10)
        assert raw > 40

    def test_storage_matches_table1(self):
        fcm = FCMPredictor(entries=8192, order=4)
        total = fcm.storage_kb()
        assert total == pytest.approx(120.8 + 67.6, abs=0.1)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            FCMPredictor(order=0)


class TestDFCM:
    def test_learns_stride_pattern_compactly(self):
        """D-FCM stores strides: an arithmetic sequence is one pattern."""
        dfcm = DifferentialFCMPredictor(entries=256, order=4,
                                        confidence=ConfidencePolicy())
        used, correct, raw = drive(dfcm, 0xB0, list(range(0, 3000, 7)))
        assert raw > 350
        assert correct == used

    def test_learns_repeating_stride_pattern(self):
        dfcm = DifferentialFCMPredictor(entries=256, order=4,
                                        confidence=ConfidencePolicy())
        values = [0]
        for __ in range(100):
            for delta in (3, 3, 10):
                values.append(values[-1] + delta)
        __, __, raw = drive(dfcm, 0xB0, values)
        assert raw > 200


class TestOracle:
    def test_always_correct(self):
        oracle = OraclePredictor()
        ctx = PredictionContext()
        for value in (0, 5, 123456, (1 << 63)):
            oracle.set_actual(value)
            pred = oracle.lookup(0xC0, ctx)
            assert pred.confident and pred.value == value

    def test_no_storage(self):
        assert OraclePredictor().storage_bits() == 0
