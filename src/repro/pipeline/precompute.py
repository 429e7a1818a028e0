"""Batch front-end precompute over the packed trace plane.

The paper's central observation — prediction is computed early, in order,
from fetch-time information only — makes most of the simulator's front-end
work *data-parallel over the instruction stream*: branch outcomes, folded
global/path history, predictor indices and tags depend on trace columns
alone, never on the out-of-order timing the cycle loop resolves.  This
module materialises all of it once per trace as numpy arrays the compiled
kernel (:mod:`repro.pipeline.ckernel`) indexes into:

* :class:`TracePlane` — per-µop branch redirect codes (a fresh
  :class:`~repro.branch.unit.BranchUnit` walked over the control µops),
  the post-branch ``(ghist & 2^64-1, path & 0xFFFF)`` context every
  value-predictor lookup would observe, and the scrambled predictor-key
  hash.  The walk runs in C (``repro_branch_plane`` in ``_ckernel.c``)
  whenever the kernel loads; :func:`_python_walk`, over exactly the
  objects the sequential model trains, is its specification and the
  fallback.
* :class:`VTAGEPlane` — per-component VTAGE indices and tags for every
  µop, vectorised with the batched fold/hash primitives
  (:func:`repro.util.history.fold_array`,
  :func:`repro.util.hashing.table_index_array`) instead of per-key memo
  dicts.  Bit-identical to the scalar ``_TaggedComponent.index_and_tag``
  (pinned by ``tests/unit/test_precompute.py``).
* :class:`KernelInputs` — the packed columns typed for the kernel and
  the predictor keys, so a job marshals none of them.
* :func:`trace_ranges` — the range reductions behind the kernel's trace
  checks, cached on the trace outside its plane cache: a trace those
  checks decline holds no plane.

Planes are cached on the trace object (the catalog's LRU byte accounting
includes them, see ``workloads/catalog.py``) and the Python-expensive
:class:`TracePlane` is additionally persisted into the on-disk trace store
next to the packed columns, keyed by :data:`PRECOMPUTE_VERSION`.  The walk
runs once per ``(name, seed)``: a slice of a cached trace takes the head
of its entry's :class:`TracePlane`, and a stored plane serves every trace
it is at least as long as.
"""

from __future__ import annotations

import numpy as np

from repro.branch.unit import BranchUnit
from repro.isa.trace import Trace
from repro.isa.uop import OpClass
from repro.util import profiling
from repro.util.bits import MASK64
from repro.util.hashing import scramble_array, table_index_array, tag_hash_array
from repro.util.history import FOLD_WIDTH, fold_array

#: Bump whenever the plane layout *or* anything feeding it (branch unit
#: semantics, hashing, fold) changes; part of the on-disk aux key, so stale
#: persisted planes are regenerated instead of misread.
PRECOMPUTE_VERSION = 3

_CTRL_INTS = tuple(sorted(
    int(c) for c in (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET)
))
_BRANCH_INT = int(OpClass.BRANCH)

#: Name of the per-trace plane cache attribute (also inspected by the
#: catalog's byte accounting, which must not import this module).
PLANE_CACHE_ATTR = "_plane_cache"


class TracePlane:
    """Stream-deterministic per-µop front-end state for one trace."""

    __slots__ = ("n", "redirect", "ghist64", "path16", "scr_pkey")

    def __init__(self, n, redirect, ghist64, path16, scr_pkey):
        self.n = n
        self.redirect = redirect
        self.ghist64 = ghist64
        self.path16 = path16
        self.scr_pkey = scr_pkey

    def head(self, n: int) -> "TracePlane":
        """The plane of the first *n* µops (views of these arrays)."""
        return TracePlane(n, self.redirect[:n], self.ghist64[:n],
                          self.path16[:n], self.scr_pkey[:n])

    @property
    def nbytes(self) -> int:
        return (self.redirect.nbytes + self.ghist64.nbytes +
                self.path16.nbytes + self.scr_pkey.nbytes)


class VTAGEPlane:
    """Per-component VTAGE (index, tag) for every µop of one trace.

    ``idx`` and ``tag`` are C-contiguous ``(components, n)`` int32 arrays:
    row ``c`` is component ``c``, and the flat layout is the comp-major
    one the kernel indexes (``c * n + i``); ``addresses`` holds their
    data addresses.
    """

    __slots__ = ("n", "idx", "tag", "addresses")

    def __init__(self, n: int, idx: np.ndarray, tag: np.ndarray):
        self.n = n
        self.idx = idx
        self.tag = tag
        self.addresses = (idx.ctypes.data, tag.ctypes.data)

    @property
    def nbytes(self) -> int:
        return self.idx.nbytes + self.tag.nbytes


class KernelInputs:
    """The per-trace half of the kernel's arguments.

    ``columns`` maps each per-µop ``KernelArgs`` array to a contiguous
    array of its dtype: packed and plane columns (views where the dtype
    already matches) and the predictor keys ``pkeys``.  ``nbytes`` counts
    only the arrays that alias no packed or plane column.  ``addresses``
    pairs each column's name with its data address, so a run sets
    pointers without asking numpy.
    """

    __slots__ = ("n", "columns", "nbytes", "addresses")

    def __init__(self, n, columns, nbytes):
        self.n = n
        self.columns = columns
        self.nbytes = nbytes
        self.addresses = tuple(
            (name, array.ctypes.data) for name, array in columns.items())


# ---------------------------------------------------------------------------
# Plane construction
# ---------------------------------------------------------------------------

def _control_columns(packed):
    """``(positions, ops, pcs, takens, targets)`` of the control µops; all
    but the positions array as Python lists."""
    a = packed.arrays
    ctrl = np.flatnonzero(np.isin(a["ops"], _CTRL_INTS))
    return (ctrl, a["ops"][ctrl].tolist(), a["pcs"][ctrl].tolist(),
            a["takens"][ctrl].tolist(), a["targets"][ctrl].tolist())


def _pkeys(trace: Trace) -> np.ndarray:
    """Predictor keys ``(pc << 2) ^ uop_index``: the cached
    :class:`KernelInputs` copy when there is one."""
    inputs = _plane_cache(trace).get(_KERNEL_KEY)
    if inputs is not None:
        return inputs.columns["pkeys"]
    a = trace.packed().arrays
    return (a["pcs"] << np.uint64(2)) ^ a["uop_indexes"].astype(np.uint64)


#: ``KernelArgs``'s per-µop arrays and their dtypes: packed columns
#: (``bool`` ones as uint8 views), then trace-plane columns.
_KERNEL_DTYPES = (
    ("seqs", np.int64), ("pcs", np.uint64), ("ops", np.uint8),
    ("dsts", np.int16), ("values", np.uint64), ("mem_addrs", np.uint64),
    ("mem_sizes", np.uint16), ("takens", np.uint8), ("dst_is_fp", np.uint8),
    ("src_offsets", np.int64), ("src_flat", np.int16),
)
_KERNEL_PLANE_DTYPES = (("redirect", np.uint8), ("scr_pkey", np.uint64))


def build_kernel_inputs(trace: Trace) -> KernelInputs:
    """Type the packed and plane columns for the kernel and add the
    predictor keys."""
    packed = trace.packed()
    a = packed.arrays
    plane = trace_plane(trace)
    sources = [(name, a[name], dtype) for name, dtype in _KERNEL_DTYPES]
    sources += [(name, getattr(plane, name), dtype)
                for name, dtype in _KERNEL_PLANE_DTYPES]
    columns = {}
    nbytes = 0
    for name, src, dtype in sources:
        view = src.view(np.uint8) if src.dtype == np.bool_ else src
        out = np.ascontiguousarray(view, dtype=dtype)
        if not np.may_share_memory(out, src):
            nbytes += out.nbytes
        columns[name] = out
    columns["pkeys"] = pkeys = _pkeys(trace)
    return KernelInputs(packed.n, columns, nbytes + pkeys.nbytes)


def _python_walk(packed, unit: BranchUnit):
    """The specification walk: *unit*'s ``process_scalar`` per control µop.

    Returns ``(redirect, ghist64, path16)``.
    """
    n = packed.n
    redirect = np.zeros(n, dtype=np.uint8)
    ghist64 = np.zeros(n, dtype=np.uint64)
    path16 = np.zeros(n, dtype=np.uint16)
    ctx = unit.context
    process = unit.process_scalar
    ctrl, op_l, pc_l, taken_l, target_l = _control_columns(packed)
    if ctrl.shape[0]:
        ctrl_list = ctrl.tolist()
        codes = []
        codes_append = codes.append
        cond_pos: list[int] = []
        g_vals: list[int] = []
        p_vals: list[int] = []
        for j in range(len(ctrl_list)):
            op = op_l[j]
            bres = process(op, pc_l[j], taken_l[j], target_l[j])
            codes_append(
                1 if bres.direction_mispredict
                else (2 if bres.target_mispredict else 0)
            )
            if op == _BRANCH_INT:
                # Only conditional branches move the (ghist, path) context.
                cond_pos.append(ctrl_list[j])
                g_vals.append(ctx.ghist & MASK64)
                p_vals.append(ctx.path & 0xFFFF)
        redirect[ctrl] = codes
        if cond_pos:
            # Context at µop i is the state *after* the branch at i (the
            # model processes the branch before the value-predictor lookup
            # of the same µop): segment-fill from each branch position up
            # to (excluding) the next one.
            starts = np.array(cond_pos, dtype=np.int64)
            lengths = np.diff(np.append(starts, n))
            ghist64[starts[0]:] = np.repeat(
                np.array(g_vals, dtype=np.uint64), lengths)
            path16[starts[0]:] = np.repeat(
                np.array(p_vals, dtype=np.uint16), lengths)
    return redirect, ghist64, path16


def build_trace_plane(trace: Trace) -> TracePlane:
    """Walk a fresh default :class:`BranchUnit` over the control µops and
    vectorise everything else.

    The walk is the one genuinely sequential front-end computation (TAGE
    tables train branch by branch).  It runs in the compiled kernel when
    one loads (:func:`~repro.pipeline.ckernel.replay_branches`), else as
    :func:`_python_walk`, which is the specification; the plane is cached
    per trace and persisted to the trace store.
    """
    from repro.pipeline import ckernel  # ckernel imports this module

    packed = trace.packed()
    unit = BranchUnit()
    redirect, ghist64, path16 = (ckernel.replay_branches(packed, unit)
                                 or _python_walk(packed, unit))
    return TracePlane(packed.n, redirect, ghist64, path16,
                      scramble_array(_pkeys(trace)))


def build_vtage_plane(trace: Trace, signature: tuple) -> VTAGEPlane:
    """Vectorised per-component positions for a VTAGE signature.

    *signature* is ``((history_length, index_bits, tag_bits), ...)`` per
    tagged component, as produced by :func:`vtage_signature`.
    """
    plane = trace_plane(trace)
    n = plane.n
    pkeys = _pkeys(trace)
    ghist64 = plane.ghist64
    path16 = plane.path16.astype(np.uint64, copy=False)
    idx = np.empty((len(signature), n), dtype=np.int32)
    tag = np.empty((len(signature), n), dtype=np.int32)
    for c, (length, index_bits, tag_bits) in enumerate(signature):
        eff = length if length < 64 else 64
        window = np.uint64(min((1 << eff) - 1, MASK64))
        path_bits = min(length, FOLD_WIDTH)
        pmask = np.uint64((1 << path_bits) - 1)
        compressed = (
            fold_array(ghist64 & window, FOLD_WIDTH)
            ^ ((path16 & pmask) << np.uint64(1))
            ^ np.uint64(length << 17)
        )
        idx[c] = table_index_array(pkeys, index_bits, compressed)
        tag[c] = tag_hash_array(pkeys, tag_bits, compressed)
    return VTAGEPlane(n, idx, tag)


def vtage_signature(predictor) -> tuple:
    """The plane cache key of a VTAGE predictor's component geometry."""
    return predictor.geometry


# ---------------------------------------------------------------------------
# Per-trace caching + store persistence
# ---------------------------------------------------------------------------

def _plane_cache(trace: Trace) -> dict:
    cache = getattr(trace, PLANE_CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(trace, PLANE_CACHE_ATTR, cache)
    return cache


def precompute_nbytes(trace: Trace) -> int:
    """Bytes of precompute planes currently attached to *trace*."""
    cache = getattr(trace, PLANE_CACHE_ATTR, None)
    if not cache:
        return 0
    return sum(plane.nbytes for plane in cache.values())


def trace_plane(trace: Trace) -> TracePlane:
    """The :class:`TracePlane` for *trace*: the head of its cache entry's
    when it is a slice (not attached: four views the LRU charges to the
    entry once), else the attached one, then the trace store's (for
    catalog-built traces), then a fresh build (persisted back)."""
    entry = getattr(trace, "prefix_of", None)
    if entry is not None:
        return trace_plane(entry).head(len(trace))
    cache = _plane_cache(trace)
    plane = cache.get("trace")
    if plane is not None:
        return plane
    with profiling.phase("precompute"):
        store, identity = _store_identity(trace)
        if store is not None:
            plane = _plane_from_store(store, identity, len(trace))
        if plane is None:
            plane = build_trace_plane(trace)
            if store is not None:
                _plane_to_store(store, identity, plane)
    cache["trace"] = plane
    return plane


_AUX_KIND = "plane"
_PLANE_ARRAYS = ("redirect", "ghist64", "path16", "scr_pkey")


def _plane_from_store(store, identity, n: int) -> TracePlane | None:
    """The head of the stored plane, when it covers at least *n* µops."""
    loaded = store.get_aux(*identity, _AUX_KIND, PRECOMPUTE_VERSION)
    if loaded is None:
        return None
    meta, arrays = loaded
    try:
        plane = TracePlane(int(meta["n"]),
                           *(arrays[name] for name in _PLANE_ARRAYS))
    except (KeyError, ValueError, TypeError):
        return None
    return plane.head(n) if plane.n >= n else None


def _plane_to_store(store, identity, plane: TracePlane) -> None:
    arrays = {name: getattr(plane, name) for name in _PLANE_ARRAYS}
    store.put_aux(*identity, _AUX_KIND, PRECOMPUTE_VERSION, arrays,
                  {"n": plane.n})


_KERNEL_KEY = "kernel"


def kernel_inputs(trace: Trace) -> KernelInputs:
    """The cached :class:`KernelInputs` for *trace*."""
    cache = _plane_cache(trace)
    inputs = cache.get(_KERNEL_KEY)
    if inputs is None:
        inputs = cache[_KERNEL_KEY] = build_kernel_inputs(trace)
    return inputs


_RANGES_ATTR = "_kernel_ranges"


def trace_ranges(trace: Trace) -> tuple[int, int, int, int, int]:
    """``(n, max_pc, max_addr, min_seq, max_reg)`` of *trace*'s packed
    columns (``max_reg`` over destinations and sources), reduced once and
    cached on the trace; not in its plane cache, so reading them builds
    no plane."""
    ranges = getattr(trace, _RANGES_ATTR, None)
    if ranges is None:
        packed = trace.packed()
        a = packed.arrays
        ranges = (packed.n, int(a["pcs"].max(initial=0)),
                  int(a["mem_addrs"].max(initial=0)),
                  int(a["seqs"].min()) if packed.n else 0,
                  max(int(a["dsts"].max(initial=0)),
                      int(a["src_flat"].max(initial=0))))
        setattr(trace, _RANGES_ATTR, ranges)
    return ranges


def vtage_plane(trace: Trace, predictor) -> VTAGEPlane:
    """The cached :class:`VTAGEPlane` for (trace, predictor geometry)."""
    signature = vtage_signature(predictor)
    cache = _plane_cache(trace)
    key = ("vtage", signature)
    plane = cache.get(key)
    if plane is None:
        with profiling.phase("precompute"):
            plane = build_vtage_plane(trace, signature)
        cache[key] = plane
    return plane


def _store_identity(trace: Trace):
    """(store, (name, seed)) when *trace* is a catalog cache entry and a
    trace store is configured; (None, None) otherwise."""
    identity = getattr(trace, "store_identity", None)
    if identity is None:
        return None, None
    from repro.workloads.store import default_trace_store

    store = default_trace_store()
    if store is None:
        return None, None
    return store, identity


def default_branch_state(model) -> bool:
    """Whether *model*'s branch unit is the fresh, default-configured
    :class:`BranchUnit` :func:`build_trace_plane` assumed: exactly while
    the model has not built it.  A unit a caller read or reconfigured, or
    a spec-loop run trained, makes the fast paths decline, unscanned.
    """
    return model.existing("branch_unit") is None
