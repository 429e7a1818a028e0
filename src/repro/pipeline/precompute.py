"""Batch front-end precompute over the packed trace plane.

The paper's central observation — prediction is computed early, in order,
from fetch-time information only — makes most of the simulator's front-end
work *data-parallel over the instruction stream*: branch outcomes, folded
global/path history, predictor indices and tags depend on trace columns
alone, never on the out-of-order timing the cycle loop resolves.  This
module materialises all of it once per trace as numpy arrays the compiled
kernel (:mod:`repro.pipeline.ckernel`) indexes into:

* :class:`TracePlane` — per-µop branch redirect codes (a fresh
  :class:`~repro.branch.unit.BranchUnit` walked over the control µops,
  exactly the objects the sequential model trains), the post-branch
  ``(ghist & 2^64-1, path & 0xFFFF)`` context every value-predictor lookup
  would observe, and the scrambled predictor-key hash.
* :class:`VTAGEPlane` — per-component VTAGE indices and tags for every
  µop, vectorised with the batched fold/hash primitives
  (:func:`repro.util.history.fold_array`,
  :func:`repro.util.hashing.table_index_array`) instead of per-key memo
  dicts.  Bit-identical to the scalar ``_TaggedComponent.index_and_tag``
  (pinned by ``tests/unit/test_precompute.py``).

Planes are cached on the trace object (the catalog's LRU byte accounting
includes them, see ``workloads/catalog.py``) and the Python-expensive
:class:`TracePlane` is additionally persisted into the on-disk trace store
next to the packed columns, keyed by :data:`PRECOMPUTE_VERSION`.
"""

from __future__ import annotations

import numpy as np

from repro.branch.tage import TAGEConfig
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
PRECOMPUTE_VERSION = 2

_CTRL_INTS = tuple(sorted(
    int(c) for c in (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET)
))
_BRANCH_INT = int(OpClass.BRANCH)

#: Name of the per-trace plane cache attribute (also inspected by the
#: catalog's byte accounting, which must not import this module).
PLANE_CACHE_ATTR = "_plane_cache"


class TracePlane:
    """Stream-deterministic per-µop front-end state for one trace."""

    __slots__ = (
        "n",
        "redirect",
        "ghist64",
        "path16",
        "scr_pkey",
        "cond_branches",
        "direction_mispredicts",
        "target_mispredicts",
        "final_ghist",
        "final_path",
        "final_ghist_length",
    )

    def __init__(self, n, redirect, ghist64, path16, scr_pkey,
                 cond_branches, direction_mispredicts, target_mispredicts,
                 final_ghist, final_path, final_ghist_length):
        self.n = n
        self.redirect = redirect
        self.ghist64 = ghist64
        self.path16 = path16
        self.scr_pkey = scr_pkey
        self.cond_branches = cond_branches
        self.direction_mispredicts = direction_mispredicts
        self.target_mispredicts = target_mispredicts
        self.final_ghist = final_ghist
        self.final_path = final_path
        self.final_ghist_length = final_ghist_length

    @property
    def nbytes(self) -> int:
        return (self.redirect.nbytes + self.ghist64.nbytes +
                self.path16.nbytes + self.scr_pkey.nbytes)


class VTAGEPlane:
    """Per-component VTAGE (index, tag) for every µop of one trace."""

    __slots__ = ("n", "idx", "tag")

    def __init__(self, n: int, idx: list[np.ndarray], tag: list[np.ndarray]):
        self.n = n
        self.idx = idx
        self.tag = tag

    @property
    def nbytes(self) -> int:
        return (sum(a.nbytes for a in self.idx) +
                sum(a.nbytes for a in self.tag))


# ---------------------------------------------------------------------------
# Plane construction
# ---------------------------------------------------------------------------

def build_trace_plane(trace: Trace) -> TracePlane:
    """Walk a fresh default :class:`BranchUnit` over the control µops and
    vectorise everything else.

    The walk is the one genuinely sequential front-end computation (TAGE
    tables train branch by branch); it touches only the ~15-20% of µops
    that are control transfers, and its result is cached per trace and
    persisted to the trace store.
    """
    packed = trace.packed()
    a = packed.arrays
    n = packed.n
    ops = a["ops"]
    redirect = np.zeros(n, dtype=np.uint8)
    ghist64 = np.zeros(n, dtype=np.uint64)
    path16 = np.zeros(n, dtype=np.uint16)

    unit = BranchUnit()
    ctx = unit.context
    process = unit.process_scalar
    ctrl = np.flatnonzero(np.isin(ops, _CTRL_INTS))
    if ctrl.shape[0]:
        ctrl_list = ctrl.tolist()
        op_l = ops[ctrl].tolist()
        pc_l = a["pcs"][ctrl].tolist()
        taken_l = a["takens"][ctrl].tolist()
        target_l = a["targets"][ctrl].tolist()
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

    pkeys = (a["pcs"] << np.uint64(2)) ^ a["uop_indexes"].astype(np.uint64)
    plane = TracePlane(
        n=n,
        redirect=redirect,
        ghist64=ghist64,
        path16=path16,
        scr_pkey=scramble_array(pkeys),
        cond_branches=unit.cond_branches,
        direction_mispredicts=unit.direction_mispredicts,
        target_mispredicts=unit.target_mispredicts,
        final_ghist=ctx.ghist,
        final_path=ctx.path,
        final_ghist_length=ctx.ghist_length,
    )
    return plane


def build_vtage_plane(trace: Trace, signature: tuple) -> VTAGEPlane:
    """Vectorised per-component positions for a VTAGE signature.

    *signature* is ``((history_length, index_bits, tag_bits), ...)`` per
    tagged component, as produced by :func:`vtage_signature`.
    """
    plane = trace_plane(trace)
    packed = trace.packed()
    a = packed.arrays
    pkeys = (a["pcs"] << np.uint64(2)) ^ a["uop_indexes"].astype(np.uint64)
    ghist64 = plane.ghist64
    path16 = plane.path16.astype(np.uint64, copy=False)
    idx_arrays: list[np.ndarray] = []
    tag_arrays: list[np.ndarray] = []
    for length, index_bits, tag_bits in signature:
        eff = length if length < 64 else 64
        window = np.uint64(min((1 << eff) - 1, MASK64))
        path_bits = min(length, FOLD_WIDTH)
        pmask = np.uint64((1 << path_bits) - 1)
        compressed = (
            fold_array(ghist64 & window, FOLD_WIDTH)
            ^ ((path16 & pmask) << np.uint64(1))
            ^ np.uint64(length << 17)
        )
        idx_arrays.append(
            table_index_array(pkeys, index_bits, compressed)
            .astype(np.int32)
        )
        tag_arrays.append(
            tag_hash_array(pkeys, tag_bits, compressed).astype(np.int32)
        )
    return VTAGEPlane(packed.n, idx_arrays, tag_arrays)


def vtage_signature(predictor) -> tuple:
    """The plane cache key of a VTAGE predictor's component geometry."""
    return tuple(
        (comp.history_length, comp.index_bits, comp.tag_bits)
        for comp in predictor.components
    )


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
    """The :class:`TracePlane` for *trace*: attached cache, then the trace
    store (for catalog-built traces), then a fresh build (persisted back)."""
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


def _plane_from_store(store, identity, n: int) -> TracePlane | None:
    loaded = store.get_aux(*identity, _AUX_KIND, PRECOMPUTE_VERSION)
    if loaded is None:
        return None
    meta, arrays = loaded
    try:
        plane = TracePlane(
            n=int(meta["n"]),
            redirect=arrays["redirect"],
            ghist64=arrays["ghist64"],
            path16=arrays["path16"],
            scr_pkey=arrays["scr_pkey"],
            cond_branches=int(meta["cond_branches"]),
            direction_mispredicts=int(meta["direction_mispredicts"]),
            target_mispredicts=int(meta["target_mispredicts"]),
            final_ghist=int(meta["final_ghist"], 16),
            final_path=int(meta["final_path"]),
            final_ghist_length=int(meta["final_ghist_length"]),
        )
    except (KeyError, ValueError, TypeError):
        return None
    if plane.n != n:
        return None
    return plane


def _plane_to_store(store, identity, plane: TracePlane) -> None:
    meta = {
        "n": plane.n,
        "cond_branches": plane.cond_branches,
        "direction_mispredicts": plane.direction_mispredicts,
        "target_mispredicts": plane.target_mispredicts,
        # The ghist window is 256 bits wide — too big for a JSON number.
        "final_ghist": f"{plane.final_ghist:x}",
        "final_path": plane.final_path,
        "final_ghist_length": plane.final_ghist_length,
    }
    arrays = {
        "redirect": plane.redirect,
        "ghist64": plane.ghist64,
        "path16": plane.path16,
        "scr_pkey": plane.scr_pkey,
    }
    store.put_aux(*identity, _AUX_KIND, PRECOMPUTE_VERSION, arrays, meta)


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
    """(store, (name, n_uops, seed)) when *trace* came from the catalog and
    a trace store is configured; (None, None) otherwise."""
    identity = getattr(trace, "store_identity", None)
    if identity is None:
        return None, None
    from repro.workloads.store import default_trace_store

    store = default_trace_store()
    if store is None:
        return None, None
    return store, identity


def default_branch_state(model) -> bool:
    """Whether *model*'s branch unit is a fresh, default-configured
    :class:`BranchUnit` — the state :func:`build_trace_plane` assumed.

    The fast paths refuse to run (and fall back to the sequential model)
    when a test pre-warmed or reconfigured the unit.
    """
    unit = model.branch_unit
    ctx = unit.context
    return (
        unit.tage.config == TAGEConfig()
        and unit.tage.lookups == 0
        and unit.tage._updates == 0
        and unit.cond_branches == 0
        and unit.direction_mispredicts == 0
        and unit.target_mispredicts == 0
        and ctx.ghist == 0
        and ctx.path == 0
        and ctx.ghist_length == 0
        and unit.ras._top == 0
        and unit.ras._depth == 0
        and not any(unit.btb._sets)
    )


def apply_branch_state(model, plane: TracePlane) -> None:
    """Write the walk's end-of-trace branch state back onto *model* so a
    fast run leaves the same externally visible unit state as the
    sequential model (counters + shared history context)."""
    unit = model.branch_unit
    unit.cond_branches = plane.cond_branches
    unit.direction_mispredicts = plane.direction_mispredicts
    unit.target_mispredicts = plane.target_mispredicts
    ctx = unit.context
    ctx.ghist = plane.final_ghist
    ctx.path = plane.final_path
    ctx.ghist_length = plane.final_ghist_length
