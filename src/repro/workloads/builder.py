"""Kernel VM: a structured builder for synthetic µop traces.

Workload kernels are small Python programs that *actually compute* their
values — loop counters advance, arrays are read, hashes are mixed — and
emit one µop per architectural operation.  The resulting trace therefore
carries genuine value streams (strides, repeats, control-flow-correlated
patterns) for the predictors and genuine dependences/addresses for the
timing model.

The builder handles the bookkeeping a compiler would:

* stable PCs: each static operation is identified by a string label, so
  every dynamic execution of "the same instruction" shares its PC (and
  hence its predictor entries);
* register allocation: value names map to architectural registers (ids
  0-31 integer, 32-63 floating point) with LRU reuse;
* a bump allocator for data regions, and a call stack for CALL/RET pairs
  so the return-address stack sees realistic behaviour.

Emission builds no :class:`~repro.isa.uop.MicroOp`: each µop is one row
tuple ``(pc, op, srcs, dst, value, mem_addr, mem_size, taken, target,
dst_is_fp)``, ``dst`` -1 for none and ``mem_addr`` 0 off loads and
stores, and :func:`pack_rows` turns the rows into
:class:`~repro.isa.trace.PackedColumns` column by column.  A generated
trace is therefore born packed.  An emitted µop's sequence number is its
position and its µop index is 0.
"""

from __future__ import annotations

import random
from itertools import chain

import numpy as np

from repro.isa.trace import PackedColumns, Trace
from repro.isa.uop import FP_REG_BASE, OpClass
from repro.util.bits import MASK64

_CODE_BASE = 0x0040_0000
_DATA_BASE = 0x1000_0000
#: Values :meth:`TraceBuilder.rand_table` draws per numpy call: its
#: transient arrays stay far smaller than the list they fill.
_TABLE_CHUNK = 1 << 14

_INT_ALU = int(OpClass.INT_ALU)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_JUMP = int(OpClass.JUMP)
_CALL = int(OpClass.CALL)
_RET = int(OpClass.RET)


def pack_rows(rows: list[tuple]) -> PackedColumns:
    """Pack emitted rows into the columnar schema."""
    n = len(rows)
    if not n:
        return PackedColumns.from_uops([])
    pcs, ops, srcs, dsts, values, addrs, sizes, takens, targets, fps = zip(*rows)
    ops = np.fromiter(ops, np.uint8, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, srcs), np.int64, n), out=offsets[1:])
    return PackedColumns(n, {
        "seqs": np.arange(n, dtype=np.int64),
        "pcs": np.fromiter(pcs, np.uint64, n),
        "uop_indexes": np.zeros(n, dtype=np.uint32),
        "ops": ops,
        "dsts": np.fromiter(dsts, np.int16, n),
        "values": np.fromiter(values, np.uint64, n),
        "mem_addrs": np.fromiter(addrs, np.uint64, n),
        "mem_valid": (ops == _LOAD) | (ops == _STORE),
        "mem_sizes": np.fromiter(sizes, np.uint16, n),
        "takens": np.fromiter(takens, np.bool_, n),
        "targets": np.fromiter(targets, np.uint64, n),
        "dst_is_fp": np.fromiter(fps, np.bool_, n),
        "src_offsets": offsets,
        "src_flat": np.fromiter(chain.from_iterable(srcs), np.int16,
                                int(offsets[-1])),
    })


class TraceBuilder:
    """Emit µops for one synthetic workload."""

    def __init__(self, name: str, seed: int = 1):
        self.name = name
        self.rng = random.Random(seed)
        self._rows: list[tuple] = []
        self._labels: dict[str, int] = {}
        self._next_pc = _CODE_BASE
        self._heap = _DATA_BASE
        # name -> register id; LRU order for reuse.
        self._int_regs: dict[str, int] = {}
        self._fp_regs: dict[str, int] = {}
        self._call_stack: list[int] = []

    # -- infrastructure ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of µops emitted so far."""
        return len(self._rows)

    def packed(self) -> PackedColumns:
        """The µops emitted so far, packed."""
        return pack_rows(self._rows)

    @property
    def trace(self) -> Trace:
        """The µops emitted so far, as a packed trace."""
        return Trace.from_packed(self.packed(), name=self.name)

    def rand_table(self, n: int, bits: int) -> list[int]:
        """``[self.rng.getrandbits(bits) for _ in range(n)]``, drawn at once.

        ``random.Random`` is MT19937, so its state is handed to numpy's
        MT19937, the raw 32-bit words are drawn in bulk, and the advanced
        state is handed back: the table and every later draw from
        ``self.rng`` are exactly what the loop would give.  CPython's
        ``getrandbits`` takes one word ``>> (32 - bits)`` for
        ``bits <= 32``, and ``w0 | (w1 >> (64 - bits)) << 32`` up to 64.
        """
        if not 1 <= bits <= 64:
            raise ValueError(f"bits must be in 1..64, not {bits}")
        version, internal, gauss_next = self.rng.getstate()
        mt = np.random.MT19937()
        mt.state = {"bit_generator": "MT19937",
                    "state": {"key": np.array(internal[:-1], dtype=np.uint32),
                              "pos": internal[-1]}}
        table: list[int] = []
        for start in range(0, n, _TABLE_CHUNK):
            count = min(_TABLE_CHUNK, n - start)
            if bits <= 32:
                words = mt.random_raw(count) >> np.uint64(32 - bits)
            else:
                pairs = mt.random_raw(2 * count).reshape(count, 2)
                words = pairs[:, 0] | (
                    (pairs[:, 1] >> np.uint64(64 - bits)) << np.uint64(32))
            table += words.tolist()
        state = mt.state["state"]
        self.rng.setstate(
            (version, (*state["key"].tolist(), int(state["pos"])), gauss_next))
        return table

    def pc_of(self, label: str) -> int:
        """Stable PC for a static operation label."""
        pc = self._labels.get(label)
        if pc is None:
            pc = self._next_pc
            self._labels[label] = pc
            self._next_pc += 4
        return pc

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Bump-allocate a data region; returns its base address."""
        self._heap = (self._heap + align - 1) & ~(align - 1)
        base = self._heap
        self._heap += nbytes
        return base

    def _reg(self, name: str, fp: bool = False) -> int:
        pool = self._fp_regs if fp else self._int_regs
        reg = pool.get(name)
        if reg is not None:
            # Refresh LRU position.
            del pool[name]
            pool[name] = reg
            return reg
        if len(pool) >= 32:
            # Reuse the register of the least recently touched name.
            victim = next(iter(pool))
            reg = pool.pop(victim)
        else:
            reg = len(pool) + (FP_REG_BASE if fp else 0)
        pool[name] = reg
        return reg

    def _srcs(self, names, fp: bool = False) -> tuple[int, ...]:
        # List comprehension instead of a generator: tuple(<listcomp>) is
        # measurably cheaper at this call rate (one call per emitted µop).
        return tuple([self._reg(n, fp) for n in names])

    # -- arithmetic ----------------------------------------------------------

    def imm(self, label: str, dst: str, value: int) -> None:
        """Load-immediate / constant generation (INT ALU, no sources)."""
        self._rows.append((self.pc_of(label), _INT_ALU, (), self._reg(dst),
                           value & MASK64, 0, 8, False, 0, False))

    def alu(self, label: str, dst: str, srcs, value: int) -> None:
        """Single-cycle integer operation."""
        self._rows.append((self.pc_of(label), _INT_ALU, self._srcs(srcs),
                           self._reg(dst), value & MASK64, 0, 8, False, 0,
                           False))

    def mul(self, label: str, dst: str, srcs, value: int) -> None:
        self._op(label, dst, srcs, value, OpClass.INT_MUL)

    def div(self, label: str, dst: str, srcs, value: int) -> None:
        self._op(label, dst, srcs, value, OpClass.INT_DIV)

    def _op(self, label, dst, srcs, value, cls, fp: bool = False) -> None:
        self._rows.append((self.pc_of(label), int(cls), self._srcs(srcs, fp),
                           self._reg(dst, fp), value & MASK64, 0, 8, False, 0,
                           fp))

    # -- floating point --------------------------------------------------------

    def fadd(self, label: str, dst: str, srcs, value: int) -> None:
        self._op(label, dst, srcs, value, OpClass.FP_ADD, fp=True)

    def fmul(self, label: str, dst: str, srcs, value: int) -> None:
        self._op(label, dst, srcs, value, OpClass.FP_MUL, fp=True)

    def fdiv(self, label: str, dst: str, srcs, value: int) -> None:
        self._op(label, dst, srcs, value, OpClass.FP_DIV, fp=True)

    # -- memory -------------------------------------------------------------

    def load(
        self,
        label: str,
        dst: str,
        addr: int,
        value: int,
        addr_srcs=(),
        fp: bool = False,
        size: int = 8,
    ) -> None:
        self._rows.append((self.pc_of(label), _LOAD, self._srcs(addr_srcs),
                           self._reg(dst, fp), value & MASK64, addr & MASK64,
                           size, False, 0, fp))

    def store(
        self,
        label: str,
        addr: int,
        data_src: str | None = None,
        addr_srcs=(),
        fp_data: bool = False,
        size: int = 8,
    ) -> None:
        srcs = self._srcs(addr_srcs)
        if data_src is not None:
            srcs += (self._reg(data_src, fp_data),)
        self._rows.append((self.pc_of(label), _STORE, srcs, -1, 0,
                           addr & MASK64, size, False, 0, False))

    # -- control flow -----------------------------------------------------------

    def branch(self, label: str, taken: bool, target_label: str, srcs=()) -> None:
        """Conditional branch; *target_label* names the taken destination."""
        self._rows.append((self.pc_of(label), _BRANCH, self._srcs(srcs), -1, 0,
                           0, 8, taken, self.pc_of(target_label), False))

    def jump(self, label: str, target_label: str) -> None:
        self._rows.append((self.pc_of(label), _JUMP, (), -1, 0, 0, 8, True,
                           self.pc_of(target_label), False))

    def call(self, label: str, target_label: str) -> None:
        pc = self.pc_of(label)
        self._call_stack.append(pc + 4)
        self._rows.append((pc, _CALL, (), -1, 0, 0, 8, True,
                           self.pc_of(target_label), False))

    def ret(self, label: str) -> None:
        target = self._call_stack.pop() if self._call_stack else 0
        self._rows.append((self.pc_of(label), _RET, (), -1, 0, 0, 8, True,
                           target, False))
