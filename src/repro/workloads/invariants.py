"""Loop-invariant redundancy injection.

Real compiled code is full of *trivially redundant* values — reloads of
globals and spilled locals, re-computed base addresses, constant moves.
Classic value-locality studies (Lipasti et al. [12]) report that a third to
a half of dynamic results repeat their previous value, and that redundancy
is what gives last-value-style predictors their baseline coverage.

Our kernels compute the *distinctive* value streams of each benchmark
(strides, almost-stable fields, history-correlated kinds...); this pass
splices in the mundane redundancy around them: every ``every`` µops, a
block of ``count`` loads from fixed addresses returning fixed values plus
one combining ALU op, at stable dedicated PCs.  The per-benchmark
``(every, count)`` pair is a calibration knob recorded in the workload
catalog.

The splice works on packed columns: every block is the same
``count + 1`` rows, so each per-µop column is the kernel's column cut
into rows of ``every``, each row extended by the block, plus the tail.
"""

from __future__ import annotations

import random

import numpy as np

from repro.isa.trace import COLUMN_SCHEMA, PackedColumns
from repro.isa.uop import OpClass
from repro.workloads.builder import pack_rows

_INV_CODE_BASE = 0x0070_0000
_INV_DATA_BASE = 0x0F00_0000
# Registers used by invariant blocks.  They may collide with the busiest
# kernels' last allocations; the values in the trace are explicit, so at
# worst a dependence edge is redirected to a fast L1 load.
_INV_REGS = (30, 31)


def _block(count: int, seed: int) -> PackedColumns:
    """The ``count`` invariant loads and their combining ALU op."""
    rng = random.Random(seed)
    values = [rng.getrandbits(48) for _ in range(count)]
    mixed = 0
    for v in values:
        mixed ^= v
    rows = [(_INV_CODE_BASE + k * 4, int(OpClass.LOAD), (),
             _INV_REGS[k % len(_INV_REGS)], values[k],
             _INV_DATA_BASE + k * 8, 8, False, 0, False)
            for k in range(count)]
    rows.append((_INV_CODE_BASE + count * 4, int(OpClass.INT_ALU),
                 tuple(dict.fromkeys(_INV_REGS[: min(count, 2)])),
                 _INV_REGS[0], mixed, 0, 8, False, 0, False))
    return pack_rows(rows)


def inject_invariants(
    packed: PackedColumns,
    every: int,
    count: int = 3,
    seed: int = 7,
) -> PackedColumns:
    """Return *packed* with an invariant block after every *every* µops."""
    if every <= 0:
        return packed
    if count < 1:
        raise ValueError("invariant block needs at least one load")
    block = _block(count, seed).arrays
    a = packed.arrays
    groups = packed.n // every
    cut = groups * every

    def splice(column: np.ndarray, rows: np.ndarray) -> np.ndarray:
        blocks = np.broadcast_to(rows, (groups, rows.shape[0]))
        grouped = np.concatenate([column[:cut].reshape(groups, every),
                                  blocks], axis=1)
        return np.concatenate([grouped.ravel(), column[cut:]])

    # Sources are CSR: splice each µop's source count and its start in
    # the kernel's and the block's flat arrays placed end to end, then
    # gather the flat array by the spliced starts.
    offsets, block_offsets = a["src_offsets"], block["src_offsets"]
    lengths = splice(np.diff(offsets), np.diff(block_offsets))
    starts = splice(offsets[:-1], offsets[-1] + block_offsets[:-1])
    n = lengths.shape[0]
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_offsets[1:])
    gather = (np.repeat(starts - out_offsets[:-1], lengths)
              + np.arange(out_offsets[-1], dtype=np.int64))
    arrays = {
        name: splice(a[name], block[name]) for name, _ in COLUMN_SCHEMA
        if name not in ("seqs", "src_offsets", "src_flat")
    }
    arrays["seqs"] = np.arange(n, dtype=np.int64)
    arrays["src_offsets"] = out_offsets
    arrays["src_flat"] = np.concatenate([a["src_flat"],
                                         block["src_flat"]])[gather]
    return PackedColumns(n, arrays)
