"""VTAGE — the Value TAgged GEometric history length predictor (Section 6).

VTAGE is the paper's main structural contribution: a value predictor derived
from the ITTAGE indirect-branch predictor.  A (1+N)-component VTAGE consists
of:

* a tagless *base* component — an LVP table indexed by instruction address
  only — and
* N *tagged* components, each indexed by a hash of the instruction address
  with a different number of bits of the global branch history (plus path
  history).  The history lengths form a geometric series (2, 4, 8, ... for
  the paper's 6-component configuration, Table 1).

An entry of a tagged component holds a partial tag (12 + rank bits), a 1-bit
usefulness counter ``u``, a full 64-bit value ``val`` and a 3-bit
confidence/hysteresis counter ``c``.  At prediction time all components are
searched in parallel; the matching component with the longest history — the
*provider* — supplies the prediction, which is used only if ``c`` is
saturated (this confidence gating is the main difference from ITTAGE).

Update policy (at commit, only the provider is updated):

* correct:   ``c++`` (saturating, possibly probabilistic under FPC), ``u = 1``;
* incorrect: ``val`` replaced if ``c == 0``; ``c = 0``; ``u = 0``; and a new
  entry is allocated in a randomly chosen not-useful (``u == 0``) component
  using a longer history than the provider.  If all upper components are
  useful, their ``u`` bits are reset instead and nothing is allocated.

Because the prediction depends only on control flow — never on previous
values of the same instruction — VTAGE predicts back-to-back occurrences of
an instruction seamlessly and its table lookup may span several cycles
(Fetch to Dispatch), permitting very large tables (Section 3.2).
"""

from __future__ import annotations

from repro.core.confidence import ConfidencePolicy
from repro.predictors.base import (
    Prediction,
    PredictionContext,
    ValuePredictor,
    constructed,
)
from repro.util.bits import MASK64, fold_value
from repro.util.hashing import (
    _KEY_CACHE,
    _MIX1,
    _MIX2,
    TAG_KEY_MULT,
    scrambled_key,
    table_index,
    tag_hash,
)
from repro.util.history import compressed_bits
from repro.util.lfsr import GaloisLFSR

_VALUE_BITS = 64
_USEFUL_BITS = 1

#: Per-component position-memo bound; cleared wholesale when exceeded.
_MEMO_LIMIT = 1 << 15

#: Geometric history lengths of the paper's 6 tagged components (Table 1).
PAPER_HISTORY_LENGTHS = (2, 4, 8, 16, 32, 64)


class _TaggedComponent:
    """One tagged VTAGE component."""

    __slots__ = (
        "rank",
        "entries",
        "index_bits",
        "index_mask",
        "tag_bits",
        "tag_mask",
        "history_length",
        "tags",
        "values",
        "conf",
        "useful",
        "memo",
    )

    def __init__(self, rank: int, entries: int, tag_bits: int, history_length: int):
        self.rank = rank
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.index_mask = entries - 1
        self.tag_bits = tag_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.history_length = history_length
        self.tags = [-1] * entries
        self.values = [0] * entries
        self.conf = [0] * entries
        self.useful = [0] * entries
        # (key << 26 | compressed) -> (index, tag); see branch/tage.py.
        self.memo: dict[int, tuple[int, int]] = {}

    def compress_context(self, ctx: PredictionContext) -> int:
        """Reference compressed-context computation (executable spec for the
        incremental registers in :mod:`repro.util.history`)."""
        hist = ctx.ghist & ((1 << self.history_length) - 1)
        # Use up to 16 bits of path history, as TAGE-family predictors do.
        path_bits = min(self.history_length, 16)
        path = ctx.path & ((1 << path_bits) - 1)
        return fold_value(hist, 16) ^ (path << 1) ^ (self.history_length << 17)

    def index_and_tag(self, key: int, ctx: PredictionContext) -> tuple[int, int]:
        """Reference from-scratch position; :meth:`VTAGEPredictor.lookup`
        inlines the same arithmetic on the incremental fast path."""
        compressed = self.compress_context(ctx)
        idx = table_index(key, self.index_bits, extra=compressed)
        tag = tag_hash(key, self.tag_bits, extra=compressed)
        return idx, tag


class VTAGEPredictor(ValuePredictor):
    """The (1+N)-component VTAGE predictor of Section 6."""

    __slots__ = (
        "confidence", "_is_confident", "_conf_threshold", "_on_correct",
        "_on_incorrect", "_lfsr", "base_entries", "_base_index_bits",
        "_base_index_mask", "tagged_entries", "geometry", "_lengths",
        "max_history", "_mkey_shift", "_pos_memo", "_tags_gen",
        "_base_values", "_base_conf", "components",
    )

    name = "VTAGE"

    def __init__(
        self,
        base_entries: int = 8192,
        tagged_entries: int = 1024,
        history_lengths: tuple[int, ...] = PAPER_HISTORY_LENGTHS,
        base_tag_bits: int = 12,
        confidence: ConfidencePolicy | None = None,
        lfsr: GaloisLFSR | None = None,
    ):
        if base_entries <= 0 or base_entries & (base_entries - 1):
            raise ValueError("base entry count must be a positive power of two")
        if tagged_entries <= 0 or tagged_entries & (tagged_entries - 1):
            raise ValueError("tagged entry count must be a positive power of two")
        if list(history_lengths) != sorted(history_lengths) or len(
            set(history_lengths)
        ) != len(history_lengths):
            raise ValueError("history lengths must be strictly increasing")
        self.confidence = confidence if confidence is not None else ConfidencePolicy()
        self._is_confident = self.confidence.is_confident
        # When the policy uses the stock saturation test, inline it as a
        # threshold compare (FPC/Wide only change the *transition* rules).
        self._conf_threshold = (
            self.confidence.max_level
            if type(self.confidence).is_confident is ConfidencePolicy.is_confident
            else None
        )
        self._on_correct = self.confidence.on_correct
        self._on_incorrect = self.confidence.on_incorrect
        self._lfsr = lfsr if lfsr is not None else GaloisLFSR(width=16, seed=0xBEEF)
        # Base component: a tagless LVP table (value + confidence only).
        self.base_entries = base_entries
        self._base_index_bits = base_entries.bit_length() - 1
        self._base_index_mask = base_entries - 1
        # Tagged components, as ``(history_length, index_bits, tag_bits)``;
        # rank 1 uses the shortest history (Table 1: "Tag = 12 + rank"
        # bits).  The tables themselves are built when first read.
        self.tagged_entries = tagged_entries
        self.geometry = tuple(
            (length, tagged_entries.bit_length() - 1, base_tag_bits + rank)
            for rank, length in enumerate(history_lengths, start=1)
        )
        self._lengths = tuple(history_lengths)
        self.max_history = max(history_lengths)
        # Shift placing the key above the compressed-context field in the
        # per-component memo keys (collision-free for any history length).
        self._mkey_shift = compressed_bits(self.max_history)
        # Whole-vector position memo: every component position is a pure
        # function of (key, low-64 ghist, low-16 path) — see the fold
        # horizon in util/history.py — so one dict hit replaces the whole
        # per-component hashing loop for recurring (key, history) pairs.
        # Entries are mutable [positions, tags_generation, provider, alt]
        # records: the provider scan is also skipped while the component
        # tag arrays (mutated only on allocation) are unchanged.
        self._pos_memo: dict[tuple[int, int, int], list] = {}
        self._tags_gen = 0
        self.park(constructed)

    def _build_tables(self) -> None:
        self._base_values = [0] * self.base_entries
        self._base_conf = [0] * self.base_entries
        self.components = [
            _TaggedComponent(rank, self.tagged_entries, tag_bits, length)
            for rank, (length, __, tag_bits) in enumerate(self.geometry,
                                                          start=1)
        ]

    # -- ValuePredictor interface ----------------------------------------

    def lookup(self, key: int, ctx: PredictionContext) -> Prediction | None:
        """Search all components; the longest-history hit provides.

        As in ITTAGE, a *newly allocated* provider entry (confidence 0, not
        yet proven useful) does not override the alternate prediction — the
        next-longest match, ultimately the base LVP table.  Without this
        rule, the continuous allocations triggered by hard-to-predict
        instructions shadow perfectly confident base entries and destroy
        coverage.
        """
        # Inlined scrambled_key cache probe (in-place clears keep the
        # module-level dict reference valid).
        scrambled = _KEY_CACHE.get(key)
        if scrambled is None:
            scrambled = scrambled_key(key)
        base_idx = scrambled & self._base_index_mask
        provider_rank = 0
        alt_rank = 0
        tags_gen = self._tags_gen
        sig = (key, ctx.ghist & MASK64, ctx.path & 0xFFFF)
        pos_memo = self._pos_memo
        record = pos_memo.get(sig)
        if record is None:
            folds = ctx.folds
            if folds is None:
                folds = ctx.fold_set()
            triples = folds.pairs(self._lengths, ctx.ghist, ctx.path)
            built = []
            append = built.append
            M = MASK64
            kt = -1
            j = 0
            mbase = key << self._mkey_shift
            for comp in self.components:
                memo = comp.memo
                mkey = mbase | triples[j + 2]
                pos = memo.get(mkey)
                if pos is None:
                    x = key ^ triples[j]
                    x ^= x >> 33
                    x = (x * _MIX1) & M
                    x ^= x >> 29
                    x = (x * _MIX2) & M
                    x ^= x >> 32
                    if kt < 0:
                        kt = (key * TAG_KEY_MULT) & M
                    y = kt ^ triples[j + 1]
                    y ^= y >> 33
                    y = (y * _MIX1) & M
                    y ^= y >> 29
                    y = (y * _MIX2) & M
                    y ^= y >> 32
                    pos = (x & comp.index_mask, (y >> 17) & comp.tag_mask)
                    if len(memo) >= _MEMO_LIMIT:
                        memo.clear()
                    memo[mkey] = pos
                j += 3
                append(pos)
                if comp.tags[pos[0]] == pos[1]:
                    alt_rank = provider_rank
                    provider_rank = comp.rank
            positions = tuple(built)
            if len(pos_memo) >= _MEMO_LIMIT:
                pos_memo.clear()
            pos_memo[sig] = [positions, tags_gen, provider_rank, alt_rank]
        elif record[1] == tags_gen:
            positions, __, provider_rank, alt_rank = record
        else:
            positions = record[0]
            rank = 0
            for comp in self.components:
                pos = positions[rank]
                rank += 1
                if comp.tags[pos[0]] == pos[1]:
                    alt_rank = provider_rank
                    provider_rank = rank
            record[1] = tags_gen
            record[2] = provider_rank
            record[3] = alt_rank
        if provider_rank == 0:
            value = self._base_values[base_idx]
            conf = self._base_conf[base_idx]
            effective_rank = 0
        else:
            comp = self.components[provider_rank - 1]
            idx, _ = positions[provider_rank - 1]
            newly_allocated = comp.conf[idx] == 0 and comp.useful[idx] == 0
            if newly_allocated:
                effective_rank = alt_rank
            else:
                effective_rank = provider_rank
            if effective_rank == 0:
                value = self._base_values[base_idx]
                conf = self._base_conf[base_idx]
            else:
                ecomp = self.components[effective_rank - 1]
                eidx, _ = positions[effective_rank - 1]
                value = ecomp.values[eidx]
                conf = ecomp.conf[eidx]
        threshold = self._conf_threshold
        return Prediction(
            value,
            (conf >= threshold) if threshold is not None
            else self._is_confident(conf),
            (provider_rank, effective_rank, base_idx, positions),
            self.name,
        )

    def train(self, key: int, actual: int, prediction: Prediction | None) -> None:
        if prediction is None or prediction.payload is None:
            # Lookup context unavailable (e.g. fast-forward warm-up): only
            # the base component can be trained meaningfully.
            self._train_base(self._base_index(key), actual)
            return
        provider_rank, effective_rank, base_idx, positions = prediction.payload
        final_correct = prediction.value == actual
        # Update the provider entry against its own prediction.
        if provider_rank == 0:
            # Inlined _train_base (the hot path: base provides most
            # predictions once the tagged components settle).
            base_values = self._base_values
            base_conf = self._base_conf
            if base_values[base_idx] == actual:
                base_conf[base_idx] = self._on_correct(base_conf[base_idx])
            else:
                if base_conf[base_idx] == 0:
                    base_values[base_idx] = actual
                base_conf[base_idx] = self._on_incorrect(base_conf[base_idx])
        else:
            comp = self.components[provider_rank - 1]
            idx, _ = positions[provider_rank - 1]
            provider_was_weak = comp.conf[idx] == 0
            self._train_tagged(comp, idx, actual)
            # When the provider is weak (newly allocated or recently wrong),
            # keep the alternate/base learning so the safety net stays warm
            # while tagged entries churn — the ITTAGE weak-provider
            # alt-update rule.
            if provider_was_weak:
                if effective_rank not in (0, provider_rank):
                    acomp = self.components[effective_rank - 1]
                    aidx, _ = positions[effective_rank - 1]
                    self._train_tagged(acomp, aidx, actual)
                self._train_base(base_idx, actual)
        if not final_correct:
            self._allocate(provider_rank, positions, actual)

    def on_squash(self) -> None:
        # VTAGE holds no per-instruction speculative value state; nothing to
        # repair beyond the branch history, which the front-end owns.
        return

    def storage_bits(self) -> int:
        conf_bits = self.confidence.storage_bits()
        base = self.base_entries * (_VALUE_BITS + conf_bits)
        tagged = sum(
            self.tagged_entries
            * (_VALUE_BITS + tag_bits + conf_bits + _USEFUL_BITS)
            for __, __, tag_bits in self.geometry
        )
        return base + tagged

    # -- internals ---------------------------------------------------------

    def _base_index(self, key: int) -> int:
        return table_index(key, self._base_index_bits)

    def _train_base(self, idx: int, actual: int) -> None:
        """Base component update: tagless LVP semantics."""
        if self._base_values[idx] == actual:
            self._base_conf[idx] = self._on_correct(self._base_conf[idx])
        else:
            if self._base_conf[idx] == 0:
                self._base_values[idx] = actual
            self._base_conf[idx] = self._on_incorrect(self._base_conf[idx])

    def _train_tagged(self, comp: _TaggedComponent, idx: int, actual: int) -> None:
        """Tagged entry update per Section 6: c++/u=1 on correct; on a
        misprediction, val replaced when c == 0, then c reset and u cleared."""
        if comp.values[idx] == actual:
            comp.conf[idx] = self._on_correct(comp.conf[idx])
            comp.useful[idx] = 1
        else:
            if comp.conf[idx] == 0:
                comp.values[idx] = actual
            comp.conf[idx] = self._on_incorrect(comp.conf[idx])
            comp.useful[idx] = 0

    def _allocate(
        self,
        provider_rank: int,
        positions: tuple[tuple[int, int], ...],
        actual: int,
    ) -> None:
        """On a misprediction, try to allocate in a longer-history component.

        Candidates are the "upper" components (rank > provider) whose
        indexed entry is not useful; one is chosen (pseudo-)randomly.  If
        every upper entry is useful, their u bits are reset and no entry is
        allocated (Section 6).
        """
        upper = [
            (comp, positions[comp.rank - 1])
            for comp in self.components
            if comp.rank > provider_rank
        ]
        if not upper:
            return
        candidates = [
            (comp, idx, tag) for comp, (idx, tag) in upper if comp.useful[idx] == 0
        ]
        if not candidates:
            for comp, (idx, _) in upper:
                comp.useful[idx] = 0
            return
        choice = self._lfsr.step() % len(candidates)
        comp, idx, tag = candidates[choice]
        comp.tags[idx] = tag
        comp.values[idx] = actual
        comp.conf[idx] = 0
        comp.useful[idx] = 0
        # Tag arrays changed: memoised provider scans are stale.
        self._tags_gen += 1

    def describe(self) -> str:
        lengths = ",".join(str(length) for length in self._lengths)
        return (
            f"VTAGE base {self.base_entries} + {len(self._lengths)} x "
            f"{self.tagged_entries} (hist {lengths}), "
            f"{self.confidence.describe()}"
        )
