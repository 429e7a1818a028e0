"""The packed trace schema: column names, dtypes and version.

Plain data, shared by :class:`~repro.isa.trace.PackedColumns` (which
holds the columns as numpy arrays) and the trace store's content key
(:func:`~repro.workloads.store.trace_key`), so that keying a trace never
imports numpy.
"""

#: Bump when the packed layout below changes shape or meaning; part of the
#: trace store's content key, so stale on-disk entries are never misread.
TRACE_SCHEMA_VERSION = 1

#: The packed column schema: ``(name, numpy dtype)`` in canonical order.
#: ``src_offsets`` has ``n + 1`` entries (CSR row pointers into
#: ``src_flat``); every other column has one entry per µop.  ``dsts`` uses
#: ``-1`` for "no destination"; ``mem_valid`` distinguishes a real address
#: of 0 from "not a memory op".  Values, PCs, addresses and targets are
#: stored masked to 64 bits (the builders already emit them masked).
COLUMN_SCHEMA = (
    ("seqs", "int64"),
    ("pcs", "uint64"),
    ("uop_indexes", "uint32"),
    ("ops", "uint8"),
    ("dsts", "int16"),
    ("values", "uint64"),
    ("mem_addrs", "uint64"),
    ("mem_valid", "bool"),
    ("mem_sizes", "uint16"),
    ("takens", "bool"),
    ("targets", "uint64"),
    ("dst_is_fp", "bool"),
    ("src_offsets", "int64"),
    ("src_flat", "int16"),
)
