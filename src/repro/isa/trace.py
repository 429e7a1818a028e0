"""Trace container, packed columnar storage and summary statistics.

A :class:`Trace` is an ordered list of correct-path µops plus a little
metadata about the workload that produced it.  Traces support slicing into
warm-up and measurement regions, mirroring the paper's methodology of warming
all structures before collecting statistics (Section 7.3).

PR 5 adds the **packed representation** underneath: every trace can be
lowered to :class:`PackedColumns`, a fixed-schema set of flat numpy arrays
(:data:`COLUMN_SCHEMA`) that fully describes the µop stream.  The packed
form is what the on-disk trace store persists (one mmap-able payload
file per trace, see :mod:`repro.workloads.store`) and what every worker
process loads from it; µop objects and the scheduler-facing list columns
are *views* derived from it on demand, so a loaded trace never re-runs
its generator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.isa.schema import COLUMN_SCHEMA
from repro.isa.uop import MicroOp, OpClass
from repro.util.bits import MASK64

_LINE_SHIFT = 6  # 64-byte I-cache lines (mirrors pipeline/core.py)

_CTRL_CLASSES = frozenset(
    {OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET}
)
_CTRL_INTS = tuple(sorted(int(c) for c in _CTRL_CLASSES))
_BRANCH_INT = int(OpClass.BRANCH)
_LOAD_INT = int(OpClass.LOAD)
_STORE_INT = int(OpClass.STORE)


class PackedColumns:
    """A trace lowered to the fixed numpy schema of :data:`COLUMN_SCHEMA`.

    This is the canonical at-rest form of a trace: a dict of flat arrays
    that round-trips exactly to the µop list (pinned by
    ``tests/unit/test_trace_columns.py``) and serialises as raw column
    bytes at recorded offsets.
    """

    __slots__ = ("n", "arrays")

    def __init__(self, n: int, arrays: dict[str, np.ndarray]):
        self.n = n
        self.arrays = arrays

    # -- construction ----------------------------------------------------

    @classmethod
    def from_uops(cls, uops: list[MicroOp]) -> "PackedColumns":
        """Pack a µop list into the columnar schema."""
        n = len(uops)
        arrays: dict[str, np.ndarray] = {}
        arrays["seqs"] = np.fromiter((u.seq for u in uops),
                                     dtype=np.int64, count=n)
        arrays["pcs"] = np.fromiter((u.pc & MASK64 for u in uops),
                                    dtype=np.uint64, count=n)
        arrays["uop_indexes"] = np.fromiter((u.uop_index for u in uops),
                                            dtype=np.uint32, count=n)
        arrays["ops"] = np.fromiter((int(u.op_class) for u in uops),
                                    dtype=np.uint8, count=n)
        arrays["dsts"] = np.fromiter(
            (u.dst if u.dst is not None else -1 for u in uops),
            dtype=np.int16, count=n)
        arrays["values"] = np.fromiter((u.value & MASK64 for u in uops),
                                       dtype=np.uint64, count=n)
        arrays["mem_addrs"] = np.fromiter(
            ((u.mem_addr & MASK64) if u.mem_addr is not None else 0
             for u in uops),
            dtype=np.uint64, count=n)
        arrays["mem_valid"] = np.fromiter(
            (u.mem_addr is not None for u in uops), dtype=np.bool_, count=n)
        arrays["mem_sizes"] = np.fromiter((u.mem_size for u in uops),
                                          dtype=np.uint16, count=n)
        arrays["takens"] = np.fromiter((u.taken for u in uops),
                                       dtype=np.bool_, count=n)
        arrays["targets"] = np.fromiter((u.target & MASK64 for u in uops),
                                        dtype=np.uint64, count=n)
        arrays["dst_is_fp"] = np.fromiter((u.dst_is_fp for u in uops),
                                          dtype=np.bool_, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(u.srcs) for u in uops),
                              dtype=np.int64, count=n),
                  out=offsets[1:])
        arrays["src_offsets"] = offsets
        arrays["src_flat"] = np.fromiter(
            (reg for u in uops for reg in u.srcs),
            dtype=np.int16, count=int(offsets[-1]))
        return cls(n, arrays)

    def to_uops(self) -> list[MicroOp]:
        """Rebuild the µop objects (dataclass-equal to the packed source)."""
        a = self.arrays
        seqs = a["seqs"].tolist()
        pcs = a["pcs"].tolist()
        uop_indexes = a["uop_indexes"].tolist()
        ops = a["ops"].tolist()
        dsts = a["dsts"].tolist()
        values = a["values"].tolist()
        mem_addrs = a["mem_addrs"].tolist()
        mem_valid = a["mem_valid"].tolist()
        mem_sizes = a["mem_sizes"].tolist()
        takens = a["takens"].tolist()
        targets = a["targets"].tolist()
        dst_is_fp = a["dst_is_fp"].tolist()
        offsets = a["src_offsets"].tolist()
        flat = a["src_flat"].tolist()
        return [
            MicroOp(
                seq=seqs[i],
                pc=pcs[i],
                uop_index=uop_indexes[i],
                op_class=OpClass(ops[i]),
                srcs=tuple(flat[offsets[i]:offsets[i + 1]]),
                dst=dsts[i] if dsts[i] >= 0 else None,
                value=values[i],
                mem_addr=mem_addrs[i] if mem_valid[i] else None,
                mem_size=mem_sizes[i],
                taken=takens[i],
                target=targets[i],
                dst_is_fp=dst_is_fp[i],
            )
            for i in range(self.n)
        ]

    def head(self, n: int) -> "PackedColumns":
        """The first *n* µops (views of these arrays); *self* when it holds
        no more than *n*."""
        if n >= self.n:
            return self
        a = self.arrays
        end = int(a["src_offsets"][n])
        arrays = {name: array[:n] for name, array in a.items()}
        arrays["src_offsets"] = a["src_offsets"][:n + 1]
        arrays["src_flat"] = a["src_flat"][:end]
        return PackedColumns(n, arrays)

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all columns (no alignment padding)."""
        return sum(arr.nbytes for arr in self.arrays.values())

    def validate(self) -> None:
        """Check schema integrity; raises ``ValueError`` on any mismatch."""
        names = [name for name, _ in COLUMN_SCHEMA]
        if sorted(self.arrays) != sorted(names):
            raise ValueError("packed columns do not match COLUMN_SCHEMA")
        for name, dtype in COLUMN_SCHEMA:
            arr = self.arrays[name]
            if arr.dtype != np.dtype(dtype):
                raise ValueError(f"column {name}: dtype {arr.dtype} != {dtype}")
            if name == "src_offsets":
                if arr.shape != (self.n + 1,):
                    raise ValueError("src_offsets length != n + 1")
            elif name == "src_flat":
                expected = int(self.arrays["src_offsets"][-1]) if self.n else 0
                if arr.shape != (expected,):
                    raise ValueError("src_flat length != src_offsets[-1]")
            elif arr.shape != (self.n,):
                raise ValueError(f"column {name}: length {arr.shape} != n")


def _predictor_keys(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Every µop's :meth:`MicroOp.predictor_key`, from packed columns."""
    return (arrays["pcs"] << np.uint64(2)) ^ arrays["uop_indexes"].astype(np.uint64)


class TraceColumns:
    """Flat parallel lists of the per-µop fields the scheduler consumes.

    The cycle model's inner loop used to re-derive these per µop — three
    ``predictor_key()`` calls per eligible µop, a property call per flag, a
    shift per I-cache line id.  Columns precompute them *once per run*
    so the hot loop is pure list indexing.  Ops are stored as plain
    ``int``s (not :class:`OpClass` members) so dispatch tables can be flat
    lists.

    Since PR 5 the columns are *derived from the packed numpy
    representation* (:class:`PackedColumns`): construction materialises
    the list views with vectorised numpy expressions + ``tolist()``.  The list-facing API (and every value in it) is
    bit-identical to the original pure-list implementation — pinned
    against a reference reimplementation by
    ``tests/unit/test_trace_columns.py`` and end-to-end by the golden
    grid — so the scheduler loop is unchanged whether a trace was
    generated or mmap-loaded.
    """

    __slots__ = (
        "n",
        "seqs",
        "pcs",
        "pc_lines",
        "ops",
        "srcs",
        "dsts",
        "values",
        "mem_addrs",
        "mem_sizes",
        "takens",
        "targets",
        "dst_is_fp",
        "is_branch",
        "is_cond_branch",
        "produces_value",
        "pkeys",
        "packed",
    )

    def __init__(self, packed: PackedColumns):
        self.packed = packed
        a = packed.arrays
        self.n = packed.n
        self.seqs = a["seqs"].tolist()
        self.pcs = a["pcs"].tolist()
        self.pc_lines = (a["pcs"] >> np.uint64(_LINE_SHIFT)).tolist()
        self.ops = a["ops"].tolist()
        flat = a["src_flat"].tolist()
        offsets = a["src_offsets"].tolist()
        self.srcs = [tuple(flat[offsets[i]:offsets[i + 1]])
                     for i in range(self.n)]
        dsts = a["dsts"]
        self.dsts = [d if d >= 0 else None for d in dsts.tolist()]
        self.values = a["values"].tolist()
        mem_valid = a["mem_valid"]
        self.mem_addrs = [
            addr if valid else None
            for addr, valid in zip(a["mem_addrs"].tolist(),
                                   mem_valid.tolist())
        ]
        self.mem_sizes = a["mem_sizes"].tolist()
        self.takens = a["takens"].tolist()
        self.targets = a["targets"].tolist()
        self.dst_is_fp = a["dst_is_fp"].tolist()
        ops = a["ops"]
        is_branch = np.isin(ops, _CTRL_INTS)
        self.is_branch = is_branch.tolist()
        self.is_cond_branch = (ops == _BRANCH_INT).tolist()
        self.produces_value = ((dsts >= 0) & ~is_branch).tolist()
        self.pkeys = _predictor_keys(a).tolist()


@dataclass(slots=True)
class TraceStats:
    """Aggregate statistics over a trace (used by reports and tests)."""

    n_uops: int = 0
    n_branches: int = 0
    n_cond_branches: int = 0
    n_taken: int = 0
    n_loads: int = 0
    n_stores: int = 0
    n_value_producers: int = 0
    op_class_counts: Counter = field(default_factory=Counter)

    @property
    def branch_ratio(self) -> float:
        return self.n_branches / self.n_uops if self.n_uops else 0.0

    @property
    def load_ratio(self) -> float:
        return self.n_loads / self.n_uops if self.n_uops else 0.0


class Trace:
    """An ordered, indexable sequence of µops with workload metadata.

    Backed by either a µop list (hand-built traces), a
    :class:`PackedColumns` (generated and store-loaded traces, see
    :meth:`from_packed`), or both; whichever half is missing is
    materialised lazily and cached.  Traces are immutable: the workload
    catalog caches them on exactly that assumption.
    """

    def __init__(self, uops: list[MicroOp] | None = None, name: str = "anonymous"):
        self.name = name
        self._uops: list[MicroOp] | None = uops if uops is not None else []
        self._packed: PackedColumns | None = None

    @classmethod
    def from_packed(cls, packed: PackedColumns, name: str = "anonymous") -> "Trace":
        """Wrap an already-packed trace; µops materialise only on demand."""
        trace = cls(uops=None, name=name)
        trace._uops = None
        trace._packed = packed
        return trace

    def packed(self) -> PackedColumns:
        """The packed numpy form of this trace, built once and cached."""
        packed = self._packed
        if packed is None:
            packed = self._packed = PackedColumns.from_uops(self._uops)
        return packed

    def columns(self) -> TraceColumns:
        """A new list view of this trace for one spec-loop run; not cached,
        so its ~5x the packed bytes never escape the catalog's budget."""
        return TraceColumns(self.packed())

    @property
    def nbytes(self) -> int:
        """Packed size in bytes (the trace cache's budget currency)."""
        return self.packed().nbytes

    def __len__(self) -> int:
        if self._uops is not None:
            return len(self._uops)
        return self._packed.n

    def __iter__(self):
        return iter(self.uops)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Trace(self.uops[item], name=self.name)
        return self.uops[item]

    @property
    def uops(self) -> list[MicroOp]:
        """The underlying µop list, rebuilding it from the packed columns
        for loaded traces on first access."""
        uops = self._uops
        if uops is None:
            uops = self._uops = self._packed.to_uops()
        return uops

    def split(self, warmup: int) -> tuple["Trace", "Trace"]:
        """Split into (warm-up slice, measurement slice) at µop *warmup*."""
        if warmup < 0:
            raise ValueError("warm-up length cannot be negative")
        head = Trace(self.uops[:warmup], name=f"{self.name}:warmup")
        tail = Trace(self.uops[warmup:], name=f"{self.name}:measure")
        return head, tail

    def stats(self) -> TraceStats:
        """Compute summary statistics (vectorised when already packed)."""
        if self._packed is not None:
            return self._stats_packed()
        stats = TraceStats()
        stats.n_uops = len(self.uops)
        counts = stats.op_class_counts
        for uop in self.uops:
            counts[uop.op_class] += 1
            if uop.is_branch:
                stats.n_branches += 1
                if uop.op_class is OpClass.BRANCH:
                    stats.n_cond_branches += 1
                if uop.taken:
                    stats.n_taken += 1
            if uop.is_load:
                stats.n_loads += 1
            elif uop.is_store:
                stats.n_stores += 1
            if uop.produces_value:
                stats.n_value_producers += 1
        return stats

    def _stats_packed(self) -> TraceStats:
        """The same statistics, computed with numpy over packed columns."""
        a = self._packed.arrays
        ops = a["ops"]
        stats = TraceStats()
        stats.n_uops = int(ops.shape[0])
        counts = np.bincount(ops, minlength=len(OpClass))
        for cls in OpClass:
            if counts[int(cls)]:
                stats.op_class_counts[cls] = int(counts[int(cls)])
        is_branch = np.isin(ops, _CTRL_INTS)
        stats.n_branches = int(is_branch.sum())
        stats.n_cond_branches = int(counts[_BRANCH_INT])
        stats.n_taken = int((is_branch & a["takens"]).sum())
        stats.n_loads = int(counts[_LOAD_INT])
        stats.n_stores = int(counts[_STORE_INT])
        stats.n_value_producers = int(((a["dsts"] >= 0) & ~is_branch).sum())
        return stats

    def back_to_back_fraction(self, fetch_width: int = 8,
                              start: int = 0) -> float:
        """Fraction of VP-eligible µops whose previous dynamic occurrence sits
        within one fetch group, i.e. would have been fetched the previous
        cycle, over the µops from *start* on (as if the trace began there).

        This reproduces the measurement motivating Section 3.2: "there can be
        as much as 15.3% (3.4% a-mean) fetched instructions eligible for VP
        and for which the previous occurrence was fetched in the previous
        cycle (8-wide Fetch)".
        """
        a = self.packed().arrays
        is_branch = np.isin(a["ops"], _CTRL_INTS)
        positions = np.flatnonzero((a["dsts"][start:] >= 0)
                                   & ~is_branch[start:]) + start
        if not positions.size:
            return 0.0
        keys = _predictor_keys(a)[positions]
        # Group each key's occurrences (stable, so still in trace order)
        # and measure the distance from every occurrence to the previous.
        order = np.argsort(keys, kind="stable")
        keys, positions = keys[order], positions[order]
        same_key = keys[1:] == keys[:-1]
        close = (positions[1:] - positions[:-1]) <= fetch_width
        return int(np.count_nonzero(same_key & close)) / positions.size
