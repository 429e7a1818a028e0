"""gDiff: global-stride value prediction (Zhou et al. [27], Section 2).

gDiff "computes the difference existing between the result of an
instruction and the results produced by the last n dynamic instructions".
If a stable distance-d stride exists, the instruction's result is predicted
as ``global_history[d] + stride``.  Crucially, gDiff needs a *speculative
global value history* at prediction time, which must itself be filled by
another predictor (or by computed results when available) — "gDiff can be
added on top of any other predictor, including VTAGE" (Section 2).

We implement gDiff as a stacking wrapper: the backing predictor supplies
both its own predictions (used to extend the speculative global history)
and the fallback prediction when gDiff has no stable stride.
"""

from __future__ import annotations

from collections import deque

from repro.core.confidence import ConfidencePolicy
from repro.predictors.base import (
    FULL_TAG_BITS,
    Prediction,
    PredictionContext,
    ValuePredictor,
)
from repro.util.bits import MASK64
from repro.util.hashing import table_index

_VALUE_BITS = 64


class GDiffPredictor(ValuePredictor):
    """Global-stride predictor stacked on a backing predictor."""

    name = "gDiff"

    def __init__(
        self,
        backing: ValuePredictor | None = None,
        entries: int = 4096,
        history_depth: int = 8,
        confidence: ConfidencePolicy | None = None,
        tag_bits: int = FULL_TAG_BITS,
    ):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entry count must be a positive power of two")
        if history_depth < 1:
            raise ValueError("global history depth must be at least 1")
        self.backing = backing
        self.entries = entries
        self.history_depth = history_depth
        self.index_bits = entries.bit_length() - 1
        self.tag_bits = tag_bits
        self.confidence = confidence if confidence is not None else ConfidencePolicy()
        # Per-instruction entry: distance into the global history and the
        # stride relative to that producer.
        self._tags: list[int | None] = [None] * entries
        self._distance = [0] * entries
        self._stride = [0] * entries
        self._conf = [0] * entries
        # The global value history is a sequence of slots: one slot is
        # appended per dynamic result with the best speculative value
        # available, and repaired in place with the architectural value at
        # train time (hardware repairs its history at writeback).
        self._slots: dict[int, int] = {}
        self._next_slot = 0
        self._pending: dict[int, deque[int]] = {}  # key -> outstanding slots
        if backing is not None:
            self.name = f"gDiff+{backing.name}"

    def _history(self) -> tuple[int, ...]:
        """Newest-first window of the global value history."""
        newest = self._next_slot - 1
        return tuple(
            self._slots[slot]
            for slot in range(newest, max(-1, newest - self.history_depth), -1)
            if slot in self._slots
        )

    # -- ValuePredictor interface ----------------------------------------

    def lookup(self, key: int, ctx: PredictionContext) -> Prediction | None:
        backing_pred = self.backing.lookup(key, ctx) if self.backing else None
        idx = table_index(key, self.index_bits)
        history = self._history()
        own = None
        if self._tags[idx] == key and len(history) > self._distance[idx]:
            base = history[self._distance[idx]]
            own = (base + self._stride[idx]) & MASK64
        own_confident = (
            own is not None and self.confidence.is_confident(self._conf[idx])
        )
        # gDiff's own prediction wins only when confident: an unconfident
        # global stride must not mask a confident backing prediction.
        if own is not None and (own_confident or backing_pred is None):
            value = own
            confident = own_confident
            source = self.name
        elif backing_pred is not None:
            value = backing_pred.value
            confident = backing_pred.confident
            source = backing_pred.source
        else:
            return None
        return Prediction(
            value=value,
            confident=confident,
            payload=(idx, own, backing_pred),
            source=source,
        )

    def speculate(self, key: int, prediction: Prediction | None) -> None:
        if prediction is None:
            return
        __, __, backing_pred = prediction.payload
        if self.backing is not None:
            self.backing.speculate(key, backing_pred)
        # Claim a history slot with the best speculative value available.
        slot = self._next_slot
        self._next_slot += 1
        self._slots[slot] = prediction.value
        self._pending.setdefault(key, deque()).append(slot)
        self._prune()

    def train(self, key: int, actual: int, prediction: Prediction | None) -> None:
        # The lookup already hashed this key; reuse its index when the
        # payload is available instead of rehashing.
        if prediction is not None:
            idx = prediction.payload[0]
        else:
            idx = table_index(key, self.index_bits)
        backing_pred = prediction.payload[2] if prediction is not None else None
        if self.backing is not None:
            self.backing.train(key, actual, backing_pred)
        # Repair this occurrence's history slot with the architectural
        # value; if no slot was claimed (lookup missed entirely), append.
        pending = self._pending.get(key)
        if pending:
            self._slots[pending.popleft()] = actual
            if not pending:
                del self._pending[key]
        else:
            self._slots[self._next_slot] = actual
            self._next_slot += 1
            self._prune()
        own = prediction.payload[1] if prediction is not None else None
        history_after = self._history()
        # The fit history excludes the slot just written (it precedes the
        # result being trained).
        fit_history = history_after[1:] if history_after else ()
        if self._tags[idx] == key:
            if own is not None and own == actual:
                self._conf[idx] = self.confidence.on_correct(self._conf[idx])
            else:
                self._conf[idx] = self.confidence.on_incorrect(self._conf[idx])
                self._fit(idx, actual, fit_history)
        else:
            self._tags[idx] = key
            self._conf[idx] = 0
            self._fit(idx, actual, fit_history)

    def _fit(self, idx: int, actual: int, history) -> None:
        """Pick the (distance, stride) pair with the smallest |stride|: the
        tightest apparent dataflow relation in the recent global history."""
        best = None
        for distance, base in enumerate(history):
            stride = (actual - base) & MASK64
            magnitude = min(stride, (1 << 64) - stride)
            if best is None or magnitude < best[2]:
                best = (distance, stride, magnitude)
        if best is not None:
            self._distance[idx] = best[0]
            self._stride[idx] = best[1]

    def _prune(self) -> None:
        floor = self._next_slot - 4 * self.history_depth
        if floor > 0 and len(self._slots) > 8 * self.history_depth:
            for slot in [s for s in self._slots if s < floor]:
                del self._slots[slot]

    def on_squash(self) -> None:
        if self.backing is not None:
            self.backing.on_squash()
        # In-flight occurrences are gone; their slots keep the speculative
        # values until overwritten out of the window (harmless), but the
        # pending repairs must be dropped.
        self._pending.clear()

    def storage_bits(self) -> int:
        distance_bits = max(1, (self.history_depth - 1).bit_length())
        per_entry = (
            self.tag_bits
            + distance_bits
            + _VALUE_BITS
            + self.confidence.storage_bits()
        )
        own = self.entries * per_entry + self.history_depth * _VALUE_BITS
        backing = self.backing.storage_bits() if self.backing else 0
        return own + backing
