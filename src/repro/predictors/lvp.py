"""Last Value Predictor (LVP), Lipasti et al. [12, 13].

The simplest computational predictor: predict that an instruction produces
the same value as its previous dynamic instance.  Table 1 of the paper sizes
it at 8192 entries with full 51-bit tags (120.8 KB).

LVP needs no speculative state: "Despite its name, LVP does not require the
previous prediction to predict the current instance as long as the table is
trained" (Section 3.2), which is why — like VTAGE — it can predict
back-to-back occurrences seamlessly.
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
from repro.util.hashing import table_index

_VALUE_BITS = 64


class LastValuePredictor(ValuePredictor):
    """Direct-mapped last-value table with full tags."""

    __slots__ = ("entries", "index_bits", "tag_bits", "confidence", "_tags",
                 "_values", "_conf")

    name = "LVP"

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
        # Full tags: we store the key itself, so aliasing never produces a
        # false hit — exactly the behaviour a 51-bit tag buys at these sizes.
        self._tags: list[int | None] = [None] * entries
        self._values = [0] * entries
        self._conf = [0] * entries

    def lookup(self, key: int, ctx: PredictionContext) -> Prediction | None:
        idx = table_index(key, self.index_bits)
        if self._tags[idx] != key:
            return None
        return Prediction(
            value=self._values[idx],
            confident=self.confidence.is_confident(self._conf[idx]),
            payload=idx,
            source=self.name,
        )

    def train(self, key: int, actual: int, prediction: Prediction | None) -> None:
        idx = table_index(key, self.index_bits)
        if self._tags[idx] != key:
            # Allocate: claim the slot for this static µop.
            self._tags[idx] = key
            self._values[idx] = actual
            self._conf[idx] = 0
            return
        if self._values[idx] == actual:
            self._conf[idx] = self.confidence.on_correct(self._conf[idx])
        else:
            self._conf[idx] = self.confidence.on_incorrect(self._conf[idx])
            self._values[idx] = actual
        return

    def storage_bits(self) -> int:
        return self.entries * (
            _VALUE_BITS + self.tag_bits + self.confidence.storage_bits()
        )

    def describe(self) -> str:
        return f"LVP {self.entries} entries, {self.confidence.describe()}"
