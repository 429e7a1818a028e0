"""Stride-family computational predictors.

* :class:`StridePredictor` — the classic stride predictor of Gabbay et
  al. [8]: predict ``last + stride`` where ``stride`` is the last observed
  delta.
* :class:`TwoDeltaStridePredictor` — the 2-Delta variant of Eickemeyer and
  Vassiliadis [6] used throughout the paper's evaluation: the predicting
  stride is only updated once the same delta has been observed twice,
  filtering out one-off discontinuities.

Stride predictors must track the *speculative* last occurrence of each
instruction when several instances are in flight (Section 3.2): the second
pipeline step (the addition) uses the result of the previous — possibly
not-yet-executed — occurrence.  :meth:`speculate` maintains that state and
:meth:`on_squash` discards it on pipeline flushes.
"""

from __future__ import annotations

from repro.core.confidence import ConfidencePolicy
from repro.predictors.base import (
    FULL_TAG_BITS,
    Prediction,
    PredictionContext,
    ValuePredictor,
    constructed,
)
from repro.util.bits import MASK64
from repro.util.hashing import table_index

_VALUE_BITS = 64
_STRIDE_BITS = 64


class StridePredictor(ValuePredictor):
    """Classic stride predictor: value = last + (last delta)."""

    __slots__ = ("entries", "index_bits", "tag_bits", "confidence", "_tags",
                 "_last", "_stride", "_conf", "_spec_last", "_inflight")

    name = "Stride"

    def __init__(
        self,
        entries: int = 8192,
        confidence: ConfidencePolicy | None = None,
        tag_bits: int = FULL_TAG_BITS,
    ):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entry count must be a positive power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.tag_bits = tag_bits
        self.confidence = confidence if confidence is not None else ConfidencePolicy()
        self.park(constructed)

    def _build_tables(self) -> None:
        entries = self.entries
        self._tags: list[int | None] = [None] * entries
        self._last = [0] * entries
        self._stride = [0] * entries
        self._conf = [0] * entries
        # Speculative last value per entry for in-flight occurrences.  An
        # entry's speculative value is live only while at least one
        # occurrence is in flight (fetched, not yet committed); the
        # in-flight counter reclaims it, and squashes clear everything.
        self._spec_last: dict[int, int] = {}
        self._inflight: dict[int, int] = {}

    # -- helpers ---------------------------------------------------------

    def _index(self, key: int) -> int:
        return table_index(key, self.index_bits)

    def _predicting_stride(self, idx: int) -> int:
        return self._stride[idx]

    # -- ValuePredictor interface ----------------------------------------

    def lookup(self, key: int, ctx: PredictionContext) -> Prediction | None:
        idx = self._index(key)
        if self._tags[idx] != key:
            return None
        base = self._spec_last.get(idx, self._last[idx])
        value = (base + self._predicting_stride(idx)) & MASK64
        return Prediction(
            value=value,
            confident=self.confidence.is_confident(self._conf[idx]),
            payload=idx,
            source=self.name,
        )

    def speculate(self, key: int, prediction: Prediction | None) -> None:
        if prediction is None:
            return
        # Track the last speculative occurrence: the next in-flight instance
        # of the same instruction chains its prediction off this value.
        idx = prediction.payload
        self._spec_last[idx] = prediction.value
        self._inflight[idx] = self._inflight.get(idx, 0) + 1

    def set_speculative_last(self, key: int, value: int) -> None:
        """Let an external component (a hybrid) inject the speculative last
        occurrence, per Section 7.1.2: "use the last prediction of VTAGE as
        the next last value for 2D-Stride if VTAGE is confident"."""
        idx = self._index(key)
        if self._tags[idx] == key:
            self._spec_last[idx] = value & MASK64

    def _train_stride(self, idx: int, actual: int) -> None:
        self._stride[idx] = (actual - self._last[idx]) & MASK64

    def train(self, key: int, actual: int, prediction: Prediction | None) -> None:
        idx = self._index(key)
        if prediction is not None:
            # This occurrence leaves the pipeline: release its claim on the
            # speculative last value.
            live = self._inflight.get(idx, 0) - 1
            if live <= 0:
                self._inflight.pop(idx, None)
                self._spec_last.pop(idx, None)
            else:
                self._inflight[idx] = live
        if self._tags[idx] != key:
            self._tags[idx] = key
            self._last[idx] = actual
            self._stride[idx] = 0
            self._conf[idx] = 0
            self._spec_last.pop(idx, None)
            self._inflight.pop(idx, None)
            return
        # Validation compares the prediction actually emitted at fetch (the
        # speculative chain's output) when one exists; the recomputed
        # committed-state prediction covers not-looked-up training.
        if prediction is not None:
            predicted = prediction.value
        else:
            predicted = (self._last[idx] + self._predicting_stride(idx)) & MASK64
        if predicted == actual:
            self._conf[idx] = self.confidence.on_correct(self._conf[idx])
            self._train_stride(idx, actual)
        else:
            self._conf[idx] = self.confidence.on_incorrect(self._conf[idx])
            self._train_stride(idx, actual)
            # Resynchronise the speculative chain: hardware repairs the
            # last-occurrence tracking with the executed value, so younger
            # in-flight occurrences re-predict from the architectural value
            # advanced by one stride per still-in-flight instance.
            inflight = self._inflight.get(idx, 0)
            if inflight > 0:
                stride = self._predicting_stride(idx)
                self._spec_last[idx] = (actual + stride * inflight) & MASK64
            else:
                self._spec_last.pop(idx, None)
        self._last[idx] = actual

    def on_squash(self) -> None:
        self._spec_last.clear()
        self._inflight.clear()

    def _stride_fields(self) -> int:
        return _STRIDE_BITS

    def storage_bits(self) -> int:
        per_entry = (
            _VALUE_BITS
            + self._stride_fields()
            + self.tag_bits
            + self.confidence.storage_bits()
        )
        return self.entries * per_entry

    def describe(self) -> str:
        return f"{self.name} {self.entries} entries, {self.confidence.describe()}"


class TwoDeltaStridePredictor(StridePredictor):
    """2-Delta stride: the predicting stride updates only after the same
    delta is observed twice in a row [6].  This is the paper's ``2D-Stride``
    (Table 1: 8192 entries, 251.9 KB — two 64-bit stride fields)."""

    __slots__ = ("_stride2",)

    name = "2D-Stride"

    def _build_tables(self) -> None:
        super()._build_tables()
        self._stride2 = [0] * self.entries  # the predicting stride

    def _predicting_stride(self, idx: int) -> int:
        return self._stride2[idx]

    def _train_stride(self, idx: int, actual: int) -> None:
        delta = (actual - self._last[idx]) & MASK64
        if delta == self._stride[idx]:
            # Same delta twice in a row: promote it to the predicting stride.
            self._stride2[idx] = delta
        self._stride[idx] = delta

    def _stride_fields(self) -> int:
        return 2 * _STRIDE_BITS
