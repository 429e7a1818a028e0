"""TAGE conditional branch predictor (Seznec & Michaud [21]).

The simulated core uses "TAGE 1+12 components, 15K-entry total, 20 cycles
min. mis. penalty" (Table 2).  This is a faithful functional TAGE:

* a bimodal base predictor (2-bit counters);
* 12 partially-tagged components indexed with geometrically increasing
  global history lengths hashed with the PC and path history;
* provider/alternate prediction selection with the ``use_alt_on_na``
  heuristic for newly allocated entries;
* usefulness counters with periodic aging, and randomized single-entry
  allocation on mispredictions.

The same :class:`~repro.predictors.base.PredictionContext` feeds both TAGE
and VTAGE, mirroring the paper's observation that VTAGE reuses "context
that is usually already available in the processor — thanks to the branch
predictor".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.predictors.base import PredictionContext
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

#: Per-component position-memo bound; cleared wholesale when exceeded.
_MEMO_LIMIT = 1 << 15


def geometric_history_lengths(minimum: int, maximum: int, count: int) -> tuple[int, ...]:
    """The geometric series of history lengths used by TAGE components."""
    if count <= 1:
        return (minimum,)
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    lengths = []
    for i in range(count):
        length = int(round(minimum * ratio**i))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return tuple(lengths)


@dataclass(slots=True)
class TAGEConfig:
    """Structural parameters for :class:`TAGEBranchPredictor`."""

    bimodal_entries: int = 4096
    tagged_entries: int = 1024
    n_components: int = 12
    min_history: int = 4
    max_history: int = 256
    tag_bits: int = 11
    counter_bits: int = 3
    useful_bits: int = 2
    u_reset_period: int = 1 << 18
    history_lengths: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.history_lengths:
            self.history_lengths = geometric_history_lengths(
                self.min_history, self.max_history, self.n_components
            )

    def total_entries(self) -> int:
        return self.bimodal_entries + self.n_components * self.tagged_entries


class _TageComponent:
    __slots__ = (
        "history_length",
        "index_bits",
        "index_mask",
        "tag_bits",
        "tag_mask",
        "tags",
        "ctr",
        "useful",
        "memo",
    )

    def __init__(self, entries: int, tag_bits: int, history_length: int):
        self.history_length = history_length
        self.index_bits = entries.bit_length() - 1
        self.index_mask = entries - 1
        self.tag_bits = tag_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.tags = [-1] * entries
        self.ctr = [0] * entries  # signed -4..3; >= 0 predicts taken
        self.useful = [0] * entries
        # (pc << 26 | compressed) -> (index, tag): positions are a pure
        # function of PC and compressed context, so loops that revisit the
        # same branches under recurring histories skip the scramble.
        self.memo: dict[int, tuple[int, int]] = {}

    def compress(self, ctx: PredictionContext) -> int:
        """Reference compressed-context computation (the executable spec the
        incremental registers in :mod:`repro.util.history` must match)."""
        hist = ctx.ghist & ((1 << self.history_length) - 1)
        path_bits = min(self.history_length, 16)
        path = ctx.path & ((1 << path_bits) - 1)
        return fold_value(hist, 16) ^ (path << 1) ^ (self.history_length << 17)

    def position(self, pc: int, ctx: PredictionContext) -> tuple[int, int]:
        """Reference from-scratch position; the hot path in
        :meth:`TAGEBranchPredictor.predict` inlines the same arithmetic."""
        compressed = self.compress(ctx)
        return (
            table_index(pc, self.index_bits, extra=compressed),
            tag_hash(pc, self.tag_bits, extra=compressed),
        )


class TAGEBranchPredictor:
    """Functional TAGE for conditional branch direction."""

    def __init__(self, config: TAGEConfig | None = None, lfsr: GaloisLFSR | None = None):
        self.config = config if config is not None else TAGEConfig()
        cfg = self.config
        if cfg.bimodal_entries & (cfg.bimodal_entries - 1):
            raise ValueError("bimodal entries must be a power of two")
        self._lfsr = lfsr if lfsr is not None else GaloisLFSR(width=16, seed=0x1234)
        self._bimodal = [2] * cfg.bimodal_entries  # 2-bit, init weakly taken
        self._bimodal_bits = cfg.bimodal_entries.bit_length() - 1
        self._bimodal_mask = cfg.bimodal_entries - 1
        self.components = [
            _TageComponent(cfg.tagged_entries, cfg.tag_bits, length)
            for length in cfg.history_lengths
        ]
        self._lengths = tuple(cfg.history_lengths)
        # Shift placing the PC above the compressed-context field in the
        # per-component memo keys (collision-free for any history length).
        self._mkey_shift = compressed_bits(max(self._lengths))
        # Whole-vector position memo: every component position is a pure
        # function of (pc, low-64 ghist, low-16 path) — see the fold
        # horizon in util/history.py — so one dict hit replaces the whole
        # per-component hashing loop for recurring (pc, history) pairs.
        # Entries are mutable [positions, tags_generation, provider, alt]
        # records: provider/alternate depend only on the positions and the
        # component tag arrays, and tags mutate only on allocation, so the
        # match scan is also skipped while `_tags_gen` is unchanged.
        self._pos_memo: dict[tuple[int, int, int], list] = {}
        self._tags_gen = 0
        self._ctr_max = (1 << (cfg.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (cfg.counter_bits - 1))
        self._useful_max = (1 << cfg.useful_bits) - 1
        self._use_alt_on_na = 8  # 4-bit counter, mid value
        self._u_reset_period = cfg.u_reset_period
        self._updates = 0
        # statistics
        self.lookups = 0
        self.mispredictions = 0

    # -- prediction --------------------------------------------------------

    def predict(self, pc: int, ctx: PredictionContext) -> tuple[bool, tuple]:
        """Return (direction, payload-for-update).

        Hot path: the per-component compressed contexts come from the
        context's incremental folded registers (updated O(components) per
        *branch*, not recomputed O(history) per lookup), positions are
        memoised per ``(pc, compressed)``, and misses inline the
        ``table_index``/``tag_hash`` scramble with the pre-multiplied
        context products — all bit-identical to the reference
        :meth:`_TageComponent.position` chain.
        """
        self.lookups += 1
        # Inlined scrambled_key cache probe (in-place clears keep the
        # module-level dict reference valid).
        scrambled = _KEY_CACHE.get(pc)
        if scrambled is None:
            scrambled = scrambled_key(pc)
        bim_idx = scrambled & self._bimodal_mask
        bim_pred = self._bimodal[bim_idx] >= 2
        provider = -1
        alt = -1
        tags_gen = self._tags_gen
        sig = (pc, ctx.ghist & MASK64, ctx.path & 0xFFFF)
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
            kt = -1  # lazily computed tag-side key product
            j = 0
            mbase = pc << self._mkey_shift
            for i, comp in enumerate(self.components):
                memo = comp.memo
                mkey = mbase | triples[j + 2]
                pos = memo.get(mkey)
                if pos is None:
                    x = pc ^ triples[j]
                    x ^= x >> 33
                    x = (x * _MIX1) & M
                    x ^= x >> 29
                    x = (x * _MIX2) & M
                    x ^= x >> 32
                    if kt < 0:
                        kt = (pc * TAG_KEY_MULT) & M
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
                    alt = provider
                    provider = i
            positions = tuple(built)
            if len(pos_memo) >= _MEMO_LIMIT:
                pos_memo.clear()
            pos_memo[sig] = [positions, tags_gen, provider, alt]
        elif record[1] == tags_gen:
            positions, __, provider, alt = record
        else:
            positions = record[0]
            i = 0
            for comp in self.components:
                pos = positions[i]
                if comp.tags[pos[0]] == pos[1]:
                    alt = provider
                    provider = i
                i += 1
            record[1] = tags_gen
            record[2] = provider
            record[3] = alt
        if provider < 0:
            return bim_pred, (bim_idx, provider, alt, positions, bim_pred, False)
        comp = self.components[provider]
        idx, _ = positions[provider]
        provider_pred = comp.ctr[idx] >= 0
        if alt >= 0:
            alt_idx, _ = positions[alt]
            alt_pred = self.components[alt].ctr[alt_idx] >= 0
        else:
            alt_pred = bim_pred
        # Newly allocated entries (weak counter, u == 0) may be overridden
        # by the alternate prediction when use_alt_on_na is high.
        newly_allocated = comp.useful[idx] == 0 and comp.ctr[idx] in (-1, 0)
        use_alt = newly_allocated and self._use_alt_on_na >= 8
        direction = alt_pred if use_alt else provider_pred
        payload = (bim_idx, provider, alt, positions, alt_pred, use_alt)
        return direction, payload

    # -- update ------------------------------------------------------------

    def update(self, pc: int, taken: bool, predicted: bool, payload: tuple) -> None:
        bim_idx, provider, alt, positions, alt_pred, used_alt = payload
        self._updates += 1
        if predicted != taken:
            self.mispredictions += 1
        if provider >= 0:
            comp = self.components[provider]
            ctr = comp.ctr
            useful = comp.useful
            idx = positions[provider][0]
            c = ctr[idx]
            provider_pred = c >= 0
            # use_alt_on_na bookkeeping on newly-allocated entries.
            if useful[idx] == 0 and (c == 0 or c == -1):
                if provider_pred != alt_pred:
                    self._nudge_use_alt(alt_pred == taken)
            # usefulness: provider correct where the alternate was wrong.
            if provider_pred != alt_pred:
                u = useful[idx]
                if provider_pred == taken:
                    if u < self._useful_max:
                        useful[idx] = u + 1
                elif u > 0:
                    useful[idx] = u - 1
            c = c + 1 if taken else c - 1
            if c > self._ctr_max:
                c = self._ctr_max
            elif c < self._ctr_min:
                c = self._ctr_min
            ctr[idx] = c
            # Also train the alternate/bimodal for weak new entries.
            if useful[idx] == 0:
                self._train_alt(bim_idx, alt, positions, taken)
        else:
            self._train_bimodal(bim_idx, taken)
        # Allocate on misprediction if a longer history component exists.
        if predicted != taken and provider < len(self.components) - 1:
            self._allocate(provider, positions, taken)
        if self._updates % self._u_reset_period == 0:
            self._age_useful()

    # -- internals -----------------------------------------------------------

    def _train_alt(self, bim_idx: int, alt: int, positions, taken: bool) -> None:
        if alt >= 0:
            comp = self.components[alt]
            idx, _ = positions[alt]
            comp.ctr[idx] = self._saturate(comp.ctr[idx] + (1 if taken else -1))
        else:
            self._train_bimodal(bim_idx, taken)

    def _train_bimodal(self, idx: int, taken: bool) -> None:
        value = self._bimodal[idx] + (1 if taken else -1)
        self._bimodal[idx] = min(3, max(0, value))

    def _saturate(self, value: int) -> int:
        return min(self._ctr_max, max(self._ctr_min, value))

    def _nudge_use_alt(self, alt_was_right: bool) -> None:
        if alt_was_right:
            self._use_alt_on_na = min(15, self._use_alt_on_na + 1)
        else:
            self._use_alt_on_na = max(0, self._use_alt_on_na - 1)

    def _allocate(self, provider: int, positions, taken: bool) -> None:
        candidates = []
        for i in range(provider + 1, len(self.components)):
            idx, _ = positions[i]
            if self.components[i].useful[idx] == 0:
                candidates.append(i)
        if not candidates:
            for i in range(provider + 1, len(self.components)):
                idx, _ = positions[i]
                if self.components[i].useful[idx] > 0:
                    self.components[i].useful[idx] -= 1
            return
        # Prefer shorter histories (2:1), as in the original TAGE.
        pick = candidates[0]
        if len(candidates) > 1 and self._lfsr.next_bits(2) == 0:
            pick = candidates[1]
        comp = self.components[pick]
        idx, tag = positions[pick]
        comp.tags[idx] = tag
        comp.ctr[idx] = 0 if taken else -1
        comp.useful[idx] = 0
        # Tag arrays changed: memoised provider/alternate scans are stale.
        self._tags_gen += 1

    def _age_useful(self) -> None:
        for comp in self.components:
            useful = comp.useful
            for i, u in enumerate(useful):
                if u:
                    useful[i] = u >> 1
