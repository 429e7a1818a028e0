"""Build, load, and drive the compiled cycle-loop kernel.

``_ckernel.c`` (same directory) is a C transliteration of
:meth:`repro.pipeline.core.CoreModel._run` over the precomputed trace plane.
This module owns everything on the Python side of that boundary:

* **Build on demand** — the shared object is compiled with the system C
  compiler (``$CC`` or ``cc``) into a cache directory keyed by the source
  hash, so editing the C source transparently rebuilds.  No compiler, a
  failed build, or a failed load disables the kernel for the process
  (fallback reason ``no-compiler``); nothing is ever a hard dependency.
* **Eligibility** — the predictor families the kernel inlines
  (:func:`predictor_type`) and, per run, a memory hierarchy and store-set
  predictor the model has not built yet (fresh by construction, so
  nothing is scanned), a stock/Wide/FPC confidence policy, at most 16
  VTAGE components, and addresses/PCs below 2**62 (so int64 arithmetic in
  C is exact, including the negative intermediate strides the L2
  prefetcher can produce).  Each failed check records one
  ``kernel-ineligible:<check>`` fallback reason.
* **Marshalling, paid where it belongs** — per-trace inputs (typed
  columns and their addresses, predictor keys, range reductions) come
  cached from :func:`repro.pipeline.precompute.kernel_inputs`.  Per
  distinct core config, a template holds every invariant ``KernelArgs``
  field: the config, the functional-unit tables, the memory geometry and
  the addresses of process-lifetime scratch (bandwidth windows, IQ
  counts, window rings, store buffer, unit pools, train-queue ring).
  The template is keyed by the config values it reads, since
  ``CoreConfig`` is mutable, and each run copies it.  The memory and
  store-set state block and the predictor's table block come from a
  pool (:class:`_Pool`) that hands a block out again only once nothing
  else holds it, so a run allocates nothing and touches no fresh pages.
  The kernel resets its own state at entry.
* **State** — the kernel works on a pooled byte block per predictor,
  never on the predictor's lists.  The kernel families are born parked
  at their constructed state (:func:`~repro.predictors.base.constructed`),
  so for a predictor no one has read the block gets the constructed
  tables and nothing is scanned; one parked by an earlier run has its
  block copied; any other (a caller read or trained its tables) has its
  lists copied.
  Nothing is written back until the call succeeds, so a kernel error
  (``kernel-error:<name>``) or ineligibility discovered late leaves the
  model untouched for the spec loop.  On success the predictor parks the
  block and rebuilds its lists when a caller first reads one
  (:meth:`~repro.predictors.base.ValuePredictor.park`); its scalar state
  (LFSRs, VTAGE's tag generation) is written at once.  Likewise the model
  adopts the run's state block and turns it into objects when a caller
  first reads ``model.memory`` or ``model.store_sets``.

The kernel returns counters through a single ``out`` array; this module
assembles the :class:`~repro.pipeline.result.SimResult` exactly as the
spec loop does.  Bit-identical results are pinned by the golden grid
(``REPRO_FAST_SIM=0`` vs default) and the equivalence tests.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from collections import namedtuple
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from repro.core.confidence import (
    ConfidencePolicy,
    ForwardProbabilisticCounters,
    WideConfidence,
)
from repro.core.vtage import VTAGEPredictor
from repro.isa.uop import OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.storesets import StoreSets
from repro.pipeline.config import RecoveryMode
from repro.pipeline.precompute import kernel_inputs
from repro.pipeline.result import SimResult
from repro.predictors.base import constructed, parked_restore, predictor_class
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.stride import StridePredictor, TwoDeltaStridePredictor
from repro.util.bits import MASK64

#: Where compiled kernels are cached (one ``.so`` per source hash).
CACHE_ENV = "REPRO_CKERNEL_CACHE"

_ABI_VERSION = 4
_BW_WINDOW = 1 << 17
_IQ_WINDOW = 1 << 16
_ADDR_LIMIT = 1 << 62
_MAX_COMPONENTS = 16

_SOURCE = Path(__file__).with_name("_ckernel.c")

# Predictor families the kernel inlines (``ptype`` in ``_ckernel.c``).
P_NONE = 0
P_ORACLE = 1
P_LVP = 2
P_STRIDE = 3
P_VTAGE = 4

# Module-level build state: None = not attempted, False = unavailable.
_lib = None
_load_attempted = False

# out[] slot indices — must mirror the enum in _ckernel.c.
(
    _O_ERROR, _O_N_UOPS, _O_CYCLES,
    _O_COND_BRANCHES, _O_BRANCH_MISP, _O_BTB_REDIRECTS,
    _O_VP_ELIGIBLE, _O_VP_PREDICTED, _O_VP_USED, _O_VP_CORRECT_USED,
    _O_VP_WRONG_USED, _O_VP_SQUASHES, _O_VP_HARMLESS, _O_VP_REISSUES,
    _O_VP_WRITE_DELAYED, _O_MEM_VIOLATIONS,
    _O_ROB_STALLS, _O_IQ_STALLS,
    _O_L1I_HITS, _O_L1I_MISSES, _O_L1I_MSHR_STALLS, _O_L1I_MSHR_N,
    _O_L1D_HITS, _O_L1D_MISSES, _O_L1D_MSHR_STALLS, _O_L1D_MSHR_N,
    _O_L2_HITS, _O_L2_MISSES, _O_L2_MSHR_STALLS, _O_L2_MSHR_N,
    _O_DRAM_REQUESTS, _O_DRAM_ROW_HITS, _O_DRAM_CHANNEL_FREE,
    _O_PF_ISSUED,
    _O_SS_VIOLATIONS, _O_SS_NEXT_SSID,
    _O_VT_ALLOCATIONS,
    _O_FPC_STATE, _O_VT_STATE,
) = range(39)
_N_OUT = 39

_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64
_PTR = ctypes.c_void_p  # every pointer field is 8 bytes; numpy owns memory


class _KernelArgs(ctypes.Structure):
    """Field-for-field mirror of ``KernelArgs`` in ``_ckernel.c``."""

    _fields_ = [
        ("abi_version", _I64),
        # trace columns
        ("n", _I64), ("warmup", _I64),
        ("seqs", _PTR), ("pcs", _PTR), ("ops", _PTR), ("dsts", _PTR),
        ("values", _PTR), ("mem_addrs", _PTR), ("mem_sizes", _PTR),
        ("takens", _PTR), ("dst_is_fp", _PTR),
        ("src_offsets", _PTR), ("src_flat", _PTR),
        # trace plane
        ("redirect", _PTR), ("scr_pkey", _PTR), ("pkeys", _PTR),
        # core config
        ("fetch_width", _I64), ("taken_width", _I64),
        ("issue_width", _I64), ("commit_width", _I64),
        ("frontend", _I64), ("backend", _I64),
        ("redirect_extra", _I64), ("decode_redirect_depth", _I64),
        ("fq_size", _I64), ("rob_size", _I64), ("iq_size", _I64),
        ("lq_size", _I64), ("sq_size", _I64),
        ("int_prf_size", _I64), ("fp_prf_size", _I64),
        ("vp_write_ports", _I64), ("vp_all_scope", _I64),
        ("reissue", _I64), ("lookahead_cap", _I64), ("sbuf_capacity", _I64),
        # functional units
        ("fu_lat", _PTR), ("fu_occ", _PTR), ("fu_pool", _PTR),
        ("pool_units", _PTR), ("n_pools", _I64), ("pool_free", _PTR),
        # bandwidth limiter windows
        ("bw_fetch_stamp", _PTR), ("bw_fetch_count", _PTR),
        ("bw_taken_stamp", _PTR), ("bw_taken_count", _PTR),
        ("bw_issue_stamp", _PTR), ("bw_issue_count", _PTR),
        ("bw_vpw_stamp", _PTR), ("bw_vpw_count", _PTR),
        # window rings
        ("fq_ring", _PTR), ("rob_ring", _PTR), ("lq_ring", _PTR),
        ("sq_ring", _PTR), ("int_prf_ring", _PTR), ("fp_prf_ring", _PTR),
        ("iq_count", _PTR),
        # store buffer
        ("sb_seq", _PTR), ("sb_start", _PTR), ("sb_end", _PTR),
        ("sb_ready", _PTR), ("sb_commit", _PTR), ("sb_pc", _PTR),
        # train queue ring
        ("tq_capacity", _I64),
        ("tq_commit", _PTR), ("tq_i", _PTR), ("tq_value", _PTR),
        ("tq_provider", _PTR), ("tq_eff", _PTR), ("tq_has", _PTR),
        # memory hierarchy
        ("l1i_sets", _I64), ("l1i_ways", _I64), ("l1i_shift", _I64),
        ("l1i_lat", _I64), ("l1i_mshrs", _I64),
        ("l1i_lines", _PTR), ("l1i_fill", _PTR), ("l1i_count", _PTR),
        ("l1i_mshr", _PTR),
        ("l1d_sets", _I64), ("l1d_ways", _I64), ("l1d_shift", _I64),
        ("l1d_lat", _I64), ("l1d_mshrs", _I64),
        ("l1d_lines", _PTR), ("l1d_fill", _PTR), ("l1d_count", _PTR),
        ("l1d_mshr", _PTR),
        ("l2_sets", _I64), ("l2_ways", _I64), ("l2_shift", _I64),
        ("l2_lat", _I64), ("l2_mshrs", _I64),
        ("l2_lines", _PTR), ("l2_fill", _PTR), ("l2_count", _PTR),
        ("l2_mshr", _PTR),
        ("dram_base", _I64), ("dram_row_penalty", _I64), ("dram_max", _I64),
        ("dram_banks", _I64), ("dram_row_bytes", _I64),
        ("dram_channel_cycles", _I64),
        ("dram_open_rows", _PTR), ("dram_bank_free", _PTR),
        ("pf_index_bits", _I64), ("pf_degree", _I64), ("pf_distance", _I64),
        ("pf_pcs", _PTR), ("pf_last", _PTR), ("pf_stride", _PTR),
        ("pf_conf", _PTR),
        # store sets
        ("ssit_bits", _I64), ("lfst_entries", _I64),
        ("ssit", _PTR), ("lfst", _PTR),
        # predictor
        ("ptype", _I64), ("conf_kind", _I64), ("conf_max_level", _I64),
        ("fpc_prob", _PTR), ("fpc_taps", _U64), ("fpc_state", _U64),
        ("tbl_mask", _I64), ("tbl_tags", _PTR), ("tbl_tag_valid", _PTR),
        ("tbl_values", _PTR), ("tbl_conf", _PTR),
        ("two_delta", _I64), ("st_stride", _PTR), ("st_stride2", _PTR),
        ("st_spec_value", _PTR), ("st_spec_has", _PTR), ("st_inflight", _PTR),
        ("vt_ncomp", _I64), ("vt_entries", _I64), ("vt_base_mask", _I64),
        ("vt_base_values", _PTR), ("vt_base_conf", _PTR),
        ("vt_tags", _PTR), ("vt_values", _PTR), ("vt_conf", _PTR),
        ("vt_useful", _PTR),
        ("vp_idx", _PTR), ("vp_tag", _PTR),
        ("vt_taps", _U64), ("vt_state", _U64),
        # outputs
        ("out", _PTR),
    ]


# ---------------------------------------------------------------------------
# Build + load


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV, "").strip()
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-ckernel"


def _build(source: Path, target: Path) -> bool:
    cc = os.environ.get("CC", "cc")
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    cmd = [cc, "-O2", "-shared", "-fPIC", "-o", str(tmp), str(source)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        return False
    os.replace(tmp, target)
    return True


def _load():
    """The loaded kernel library, building it on first use.

    Returns ``None`` (and remembers the failure for the process) when no
    compiler is available, the build fails, or the ABI does not match.
    """
    global _lib, _load_attempted
    if _load_attempted:
        return _lib or None
    _load_attempted = True
    _lib = False
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"_ckernel-{digest}.so"
    if not so_path.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        if not _build(_SOURCE, so_path):
            return None
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.repro_kernel_abi_version.restype = _I64
        lib.repro_kernel_abi_version.argtypes = []
        lib.repro_kernel_run.restype = _I64
        lib.repro_kernel_run.argtypes = [ctypes.POINTER(_KernelArgs)]
        if lib.repro_kernel_abi_version() != _ABI_VERSION:
            return None
    except OSError:
        return None
    _lib = lib
    return lib


def kernel_available() -> bool:
    """Whether the compiled kernel can be (or has been) loaded."""
    return _load() is not None


# ---------------------------------------------------------------------------
# Eligibility


def predictor_type(predictor) -> int | None:
    """The kernel's ``ptype`` for *predictor*, or ``None`` (unsupported).

    Exact-type checks on purpose: a subclass may override the indexing the
    plane precomputed.  A parked predictor is seen as its own class.
    """
    if predictor is None:
        return P_NONE
    kind = predictor_class(predictor)
    if kind is OraclePredictor:
        return P_ORACLE
    if kind is LastValuePredictor:
        return P_LVP
    if kind is StridePredictor or kind is TwoDeltaStridePredictor:
        return P_STRIDE
    if kind is VTAGEPredictor:
        return P_VTAGE
    return None


#: FPC probability vector -> ``(array, address)``; a handful per process.
_FPC_PROBS: dict[tuple, tuple[np.ndarray, int]] = {}


def _policy_fields(policy):
    """``(conf_kind, max_level, prob_address, taps, state)`` or ``None``.

    Exact type checks: any confidence subclass that overrides transition or
    saturation behaviour must take the spec loop.
    """
    kind = type(policy)
    if kind is ConfidencePolicy or kind is WideConfidence:
        return 0, policy.max_level, _PLACEHOLDER_ADDR, 0, 0
    if kind is ForwardProbabilisticCounters:
        vector = policy.probability_log2
        prob = _FPC_PROBS.get(vector)
        if prob is None:
            array = np.asarray(vector, dtype=np.int64)
            prob = _FPC_PROBS[vector] = (array, array.ctypes.data)
        lfsr = policy.lfsr
        return 1, policy.max_level, prob[1], lfsr._taps, lfsr.state
    return None


def _address(array: np.ndarray) -> int:
    """Data address of a new, writable *array* (cheaper than ``.ctypes``)."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


# ---------------------------------------------------------------------------
# Memory and store-set state: one block per run, adopted by the model


def _state_layout():
    """``(slices, size, geometry)`` of a run's memory and store-set block:
    each array's slice of the int64 block, the block's length, and the
    scalar ``KernelArgs`` fields.  Every ``CoreModel`` builds its memory
    and store sets with their defaults, so one layout serves the process.
    """
    memory, store_sets = MemoryHierarchy(), StoreSets()
    dram, pf = memory.dram, memory.prefetcher
    geometry = dict(
        dram_base=dram.base_latency, dram_row_penalty=dram.row_miss_penalty,
        dram_max=dram.max_latency, dram_banks=dram.n_banks,
        dram_row_bytes=dram.row_bytes, dram_channel_cycles=dram.channel_cycles,
        pf_index_bits=pf._index_bits, pf_degree=pf.degree,
        pf_distance=pf.distance, ssit_bits=store_sets._ssit_bits,
        lfst_entries=store_sets.lfst_entries)
    sizes = []
    for prefix, *__ in _CACHE_SLOTS:
        cache = getattr(memory, prefix)
        sets, ways, mshrs = (cache.config.sets, cache.config.ways,
                             cache.config.mshrs)
        geometry.update({
            f"{prefix}_sets": sets, f"{prefix}_ways": ways,
            f"{prefix}_shift": cache._line_shift,
            f"{prefix}_lat": cache._hit_latency, f"{prefix}_mshrs": mshrs})
        sizes += [(f"{prefix}_lines", sets * ways),
                  (f"{prefix}_fill", sets * ways),
                  (f"{prefix}_count", sets), (f"{prefix}_mshr", mshrs + 1)]
    sizes += [("dram_open_rows", dram.n_banks),
              ("dram_bank_free", dram.n_banks)]
    sizes += [(name, 1 << pf._index_bits)
              for name in ("pf_pcs", "pf_last", "pf_stride", "pf_conf")]
    sizes += [("ssit", 1 << store_sets._ssit_bits),
              ("lfst", store_sets.lfst_entries)]
    slices = {}
    offset = 0
    for name, size in sizes:
        slices[name] = slice(offset, offset + size)
        offset += size
    return slices, offset, geometry


_CACHE_SLOTS = (
    ("l1i", _O_L1I_HITS, _O_L1I_MISSES, _O_L1I_MSHR_STALLS, _O_L1I_MSHR_N),
    ("l1d", _O_L1D_HITS, _O_L1D_MISSES, _O_L1D_MSHR_STALLS, _O_L1D_MSHR_N),
    ("l2", _O_L2_HITS, _O_L2_MISSES, _O_L2_MSHR_STALLS, _O_L2_MSHR_N),
)


def _restore_memory(slices, state, out, memory) -> None:
    """Write a kernel run's final hierarchy state into fresh *memory*.

    Each cache keeps its non-empty sets' ``(line, fill-ready)`` rows, MRU
    first, below their way counts.
    """
    def part(name):
        return state[slices[name]]

    for prefix, hits, misses, stalls, mshr_n in _CACHE_SLOTS:
        cache = getattr(memory, prefix)
        count = part(f"{prefix}_count")
        used = np.flatnonzero(count)
        rows = zip(used.tolist(), count[used].tolist(),
                   part(f"{prefix}_lines").reshape(len(count), -1)[used]
                   .tolist(),
                   part(f"{prefix}_fill").reshape(len(count), -1)[used]
                   .tolist())
        for s, cnt, lines, ready in rows:
            lines = cache._sets[s] = lines[:cnt]
            cache._fill_ready.update(zip(lines, ready[:cnt]))
        cache._mshr_heap = part(f"{prefix}_mshr")[:out[mshr_n]].tolist()
        cache.hits, cache.misses, cache.mshr_stalls = (
            out[hits], out[misses], out[stalls])

    dram = memory.dram
    dram.requests = out[_O_DRAM_REQUESTS]
    dram.row_hits = out[_O_DRAM_ROW_HITS]
    dram._channel_free = out[_O_DRAM_CHANNEL_FREE]
    dram._bank_free = part("dram_bank_free").tolist()
    dram._open_rows = {bank: row for bank, row in enumerate(
        part("dram_open_rows").tolist()) if row != -1}
    pf = memory.prefetcher
    pf._pcs = part("pf_pcs").tolist()
    pf._last_addr = part("pf_last").tolist()
    pf._stride = part("pf_stride").tolist()
    pf._conf = part("pf_conf").tolist()
    pf.issued = out[_O_PF_ISSUED]


def _restore_store_sets(slices, state, out, store_sets) -> None:
    """Write a kernel run's final store-set tables into fresh *store_sets*."""
    store_sets._ssit = {
        i: v for i, v in enumerate(state[slices["ssit"]].tolist()) if v != -1
    }
    store_sets._lfst = {
        i: v for i, v in enumerate(state[slices["lfst"]].tolist()) if v != -1
    }
    store_sets._next_ssid = out[_O_SS_NEXT_SSID]
    store_sets.violations_trained = out[_O_SS_VIOLATIONS]


# ---------------------------------------------------------------------------
# Invariant arguments: one template per distinct core config


#: The ``CoreConfig`` fields a template reads; with the functional-unit
#: timings they are its key.
_CONFIG_FIELDS = (
    "fetch_width", "max_taken_per_cycle", "issue_width", "commit_width",
    "frontend_depth", "backend_depth", "redirect_extra",
    "decode_redirect_depth", "fetch_queue", "rob_entries", "iq_entries",
    "lq_entries", "sq_entries", "int_prf", "fp_prf", "arch_regs",
    "vp_write_ports", "vp_scope", "recovery", "squash_lookahead",
)
_Config = namedtuple("_Config", _CONFIG_FIELDS)
_read_config = attrgetter(*_CONFIG_FIELDS)
_read_fu = attrgetter("units", "latency", "pipelined")
_OP_CLASSES = tuple(OpClass)


def _config_key(cfg) -> tuple:
    """The values of *cfg* a template reads: its ``_CONFIG_FIELDS``, and
    ``(units, latency, pipelined)`` per op class."""
    fu = cfg.fu
    return _read_config(cfg), tuple(map(_read_fu,
                                        map(fu.__getitem__, _OP_CLASSES)))


#: ``OpClass`` -> functional-unit pool (mirrors ``CoreModel._run``'s
#: aliasing), and the op class whose unit count sizes each pool.
_FU_POOL = np.array((0, 1, 1, 2, 3, 3, 4, 4, 0, 0, 0, 0, 0), dtype=np.int64)
_POOL_CLASSES = (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FP_ADD,
                 OpClass.FP_MUL, OpClass.LOAD)

#: Where every predictor pointer field points when the family does not use
#: it: one zeroed 8-byte word, never written by the kernel.
_PLACEHOLDER = np.zeros(1, dtype=np.int64)
_PLACEHOLDER_ADDR = _PLACEHOLDER.ctypes.data
_PREDICTOR_POINTERS = (
    "fpc_prob", "tbl_tags", "tbl_tag_valid", "tbl_values", "tbl_conf",
    "st_stride", "st_stride2", "st_spec_value", "st_spec_has",
    "st_inflight", "vt_base_values", "vt_base_conf", "vt_tags", "vt_values",
    "vt_conf", "vt_useful", "vp_idx", "vp_tag",
)

#: Distinct core configs whose templates a process keeps at once.
_MAX_TEMPLATES = 64


def _template(key: tuple, scratch: "_Scratch"):
    """``(args, arrays)``: the invariant ``KernelArgs`` of the core config
    *key* describes, and the arrays they point at (functional-unit tables;
    window rings, store buffer, unit pools and the train-queue ring in one
    block).  The train-queue ring holds ``fetch_queue + rob_entries``
    entries, the most a run can have queued (``_ckernel.c``'s header)."""
    key, fu = _Config._make(key[0]), key[1]
    args = _KernelArgs()
    args.abi_version = _ABI_VERSION
    args.fetch_width = key.fetch_width
    args.taken_width = key.max_taken_per_cycle
    args.issue_width = key.issue_width
    args.commit_width = key.commit_width
    args.frontend = key.frontend_depth
    args.backend = key.backend_depth
    args.redirect_extra = key.redirect_extra
    args.decode_redirect_depth = key.decode_redirect_depth
    args.fq_size = key.fetch_queue
    args.rob_size = key.rob_entries
    args.iq_size = key.iq_entries
    args.lq_size = key.lq_entries
    args.sq_size = key.sq_entries
    args.int_prf_size = max(1, key.int_prf - key.arch_regs)
    args.fp_prf_size = max(1, key.fp_prf - key.arch_regs)
    args.vp_write_ports = (
        key.vp_write_ports if key.vp_write_ports is not None else -1)
    args.vp_all_scope = key.vp_scope == "all"
    args.reissue = key.recovery is RecoveryMode.SELECTIVE_REISSUE
    args.lookahead_cap = key.squash_lookahead
    sbuf_capacity = key.sq_entries + 16
    args.sbuf_capacity = sbuf_capacity

    fu_lat = np.array([latency for __, latency, __ in fu], dtype=np.int64)
    fu_occ = np.array([1 if pipelined else latency
                       for __, latency, pipelined in fu], dtype=np.int64)
    pool_units = np.array([fu[c][0] for c in _POOL_CLASSES], dtype=np.int64)
    args.fu_lat = fu_lat.ctypes.data
    args.fu_occ = fu_occ.ctypes.data
    args.fu_pool = _FU_POOL.ctypes.data
    args.pool_units = pool_units.ctypes.data
    args.n_pools = len(_POOL_CLASSES)

    tq = key.fetch_queue + key.rob_entries
    args.tq_capacity = tq
    parts = (
        ("fq_ring", 8 * key.fetch_queue), ("rob_ring", 8 * key.rob_entries),
        ("lq_ring", 8 * key.lq_entries), ("sq_ring", 8 * key.sq_entries),
        ("int_prf_ring", 8 * args.int_prf_size),
        ("fp_prf_ring", 8 * args.fp_prf_size),
        ("sb_seq", 8 * sbuf_capacity), ("sb_start", 8 * sbuf_capacity),
        ("sb_end", 8 * sbuf_capacity), ("sb_ready", 8 * sbuf_capacity),
        ("sb_commit", 8 * sbuf_capacity), ("sb_pc", 8 * sbuf_capacity),
        ("pool_free", 8 * int(pool_units.sum())),
        ("tq_commit", 8 * tq), ("tq_value", 8 * tq), ("tq_i", 4 * tq),
        ("tq_provider", tq), ("tq_eff", tq), ("tq_has", tq))
    nbytes = sum(size for __, size in parts)
    block = np.empty(-(-nbytes // 8), dtype=np.int64)
    address = block.ctypes.data
    for name, size in parts:
        setattr(args, name, address)
        address += size
    arrays = (fu_lat, fu_occ, pool_units, block)

    args.iq_count = scratch.get("iq_count", _IQ_WINDOW, fill=0,
                                dtype=np.int32)
    windows = ["fetch", "taken", "issue"]
    if key.vp_write_ports is not None:
        windows.append("vpw")
    for w in windows:
        setattr(args, f"bw_{w}_stamp",
                scratch.get(f"bw_{w}_stamp", _BW_WINDOW, fill=-1))
        setattr(args, f"bw_{w}_count",
                scratch.get(f"bw_{w}_count", _BW_WINDOW))

    for name, value in scratch.geometry.items():
        setattr(args, name, value)
    for name in _PREDICTOR_POINTERS:
        setattr(args, name, _PLACEHOLDER_ADDR)
    return args, arrays


class _Scratch:
    """Kernel buffers, argument templates and block pools, kept for the
    process.

    The bandwidth windows and the IQ's per-cycle counts are shared by
    every template: fixed-size, and the kernel hands them back as it got
    them, every stamp -1 and every count 0 (a window count is read only
    under a matching stamp).  Everything else the kernel reads before
    writing it resets at entry.  Nothing here grows with the trace.
    """

    def __init__(self):
        self._buffers: dict[str, tuple[np.ndarray, int]] = {}
        #: Config key -> ``(args, arrays)`` (:func:`_template`).
        self.templates: dict[tuple, tuple] = {}
        #: Memory/store-set state blocks and predictor table blocks.
        self.pool = _Pool()
        self.slices, self.state_size, self.geometry = _state_layout()
        #: ``(field, byte offset)`` of each array in a run's state block.
        self.state_fields = tuple(
            (name, 8 * part.start) for name, part in self.slices.items())

    def get(self, name: str, size: int, fill=None, dtype=np.int64) -> int:
        """Address of buffer *name*, *size* entries of *dtype*, first
        filled with *fill* (uninitialised when ``None``)."""
        buffer = self._buffers.get(name)
        if buffer is None:
            array = (np.empty(size, dtype) if fill is None
                     else np.full(size, fill, dtype))
            buffer = self._buffers[name] = (array, array.ctypes.data)
        return buffer[1]

    def template(self, key: tuple) -> _KernelArgs:
        template = self.templates.get(key)
        if template is None:
            if len(self.templates) >= _MAX_TEMPLATES:
                self.templates.clear()
            template = self.templates[key] = _template(key, self)
        return template[0]

    @property
    def nbytes(self) -> int:
        arrays = [a for a, __ in self._buffers.values()] + [
            a for __, kept in self.templates.values() for a in kept]
        return sum(array.nbytes for array in arrays) + self.pool.nbytes


#: Blocks a pool keeps per layout, and bytes it keeps in all.
_POOL_BLOCKS = 4
_POOL_BYTES = 16 << 20


def _free_refs() -> int:
    """``sys.getrefcount`` of a block only its list holds, read the way
    :meth:`_Pool.take` reads it: from a loop over the list (3 on CPython
    3.11 and 3.12: the list, the loop variable and the argument); 0 on an
    interpreter without reference counts."""
    getrefcount = getattr(sys, "getrefcount", None)
    if getrefcount is None:
        return 0
    for block in [np.empty(0, dtype=np.uint8)]:
        return getrefcount(block)


_FREE_REFS = _free_refs()


class _Pool:
    """Byte blocks reused from run to run, so a run touches no fresh pages.

    A block goes out again only once the pool alone holds it: not a model
    whose memory or store sets are still to be built from it, nor a
    predictor parked on it, nor any view of either (a view holds its
    base).  Reference counts drop on any thread, but blocks go out only
    under ``_SCRATCH_LOCK``, so a free block stays free until taken.  The
    pool keeps up to ``_POOL_BLOCKS`` per key within ``_POOL_BYTES`` in
    all; a block past either bound is handed out all the same and freed
    with its last holder.

    Reuse rests on CPython's reference counts, checked once at import
    (:func:`_reuse_is_exact`).  Where the check fails, ``reuse`` is off
    and every run gets a new block: slower, never wrong.
    """

    #: Whether blocks go out more than once (:func:`_reuse_is_exact`).
    reuse = True

    def __init__(self):
        #: Key -> its blocks.
        self._blocks: dict[object, list[np.ndarray]] = {}
        self.nbytes = 0

    def take(self, key, nbytes: int) -> np.ndarray:
        """A uint8 block of *nbytes* for layout *key*, contents undefined."""
        blocks = self._blocks.setdefault(key, [])
        if self.reuse:
            for block in blocks:
                if sys.getrefcount(block) <= _FREE_REFS:
                    return block
        block = np.empty(nbytes, dtype=np.uint8)
        if self.reuse and len(blocks) < _POOL_BLOCKS and \
                self.nbytes + nbytes <= _POOL_BYTES:
            blocks.append(block)
            self.nbytes += nbytes
        return block


def _reuse_is_exact() -> bool:
    """Whether :meth:`_Pool.take` tells a held block from a free one here.

    A probe pool must not hand out again a block held by a name or only
    through a view of it, and must hand out again one no longer held.
    """
    if _FREE_REFS < 1:
        return False
    pool = _Pool()
    pool.reuse = True
    held = pool.take("held", 8)
    viewed = pool.take("viewed", 8)[:4]
    if pool.take("held", 8) is held or pool.take("viewed", 8) is viewed.base:
        return False
    del held, viewed
    return pool.take("held", 8) is pool._blocks["held"][0]


_Pool.reuse = _reuse_is_exact()


_scratch: _Scratch | None = None
#: Held across a run's use of the scratch: the ctypes call drops the GIL.
_SCRATCH_LOCK = threading.Lock()


def _get_scratch() -> _Scratch:
    global _scratch
    if _scratch is None:
        _scratch = _Scratch()
    return _scratch


def scratch_nbytes() -> int:
    """Bytes of kernel scratch this process holds."""
    return _scratch.nbytes if _scratch is not None else 0


# ---------------------------------------------------------------------------
# Predictor tables: one pooled byte block per run, parked on success


class _Layout:
    """Where one predictor geometry's tables sit in a byte block.

    ``fields`` holds ``(arg, attr, dtype, count, offset)`` per
    ``KernelArgs`` table pointer, 8-byte tables first so every view is
    aligned; *attr* names the predictor list the table mirrors, and
    :func:`_block_from_lists` and :func:`_restore_tables` convert the rest
    (tags, speculative state, VTAGE components).  ``names`` are the
    attributes a parked predictor drops; ``ones`` is the byte range the
    constructed tables fill with -1 (VTAGE tags).  The layout itself keys
    its blocks in the pool.
    """

    __slots__ = ("fields", "nbytes", "names", "ones")

    def __init__(self, specs, names):
        self.fields = []
        self.nbytes = 0
        self.ones = slice(0)
        for arg, attr, dtype, count in specs:
            dtype = np.dtype(dtype)
            self.fields.append((arg, attr, dtype, count, self.nbytes))
            if arg == "vt_tags":
                self.ones = slice(self.nbytes, self.nbytes + 8 * count)
            self.nbytes += dtype.itemsize * count
        self.names = names

    def views(self, block: np.ndarray) -> dict[str, np.ndarray]:
        return {arg: block[offset:offset + dtype.itemsize * count].view(dtype)
                for arg, __, dtype, count, offset in self.fields}

    def construct(self, block: np.ndarray) -> None:
        """Write the constructed tables into *block*."""
        block.fill(0)
        block[self.ones] = 0xFF


_VTAGE_TABLES = (("vt_tags", "tags"), ("vt_values", "values"),
                 ("vt_conf", "conf"), ("vt_useful", "useful"))


def _block_from_lists(layout: _Layout, predictor, block: np.ndarray) -> None:
    """Write *predictor*'s lists into *block*."""
    block.fill(0)
    v = layout.views(block)
    for arg, attr, *__ in layout.fields:
        if attr is not None:
            v[arg][:] = getattr(predictor, attr)
    if "tbl_tags" in v:
        tags = predictor._tags
        v["tbl_tags"][:] = [t if t is not None else 0 for t in tags]
        v["tbl_tag_valid"][:] = [t is not None for t in tags]
    if "st_spec_has" in v:
        for idx, value in predictor._spec_last.items():
            v["st_spec_value"][idx] = value
            v["st_spec_has"][idx] = 1
        for idx, live in predictor._inflight.items():
            v["st_inflight"][idx] = live
    if "vt_tags" in v:
        comps = predictor.components
        for arg, attr in _VTAGE_TABLES:
            v[arg].reshape(len(comps), -1)[:] = [getattr(c, attr)
                                                 for c in comps]


def _restore_tables(layout: _Layout, block: np.ndarray, predictor) -> None:
    """Set *predictor*'s lists from a block, a kernel run's restore."""
    v = layout.views(block)
    if "vt_tags" in v:
        predictor._build_tables()
        for arg, attr in _VTAGE_TABLES:
            rows = v[arg].reshape(len(predictor.components), -1).tolist()
            for comp, row in zip(predictor.components, rows):
                setattr(comp, attr, row)
    for arg, attr, *__ in layout.fields:
        if attr is not None:
            setattr(predictor, attr, v[arg].tolist())
    if "tbl_tags" in v:
        predictor._tags = [t if valid else None for t, valid in zip(
            v["tbl_tags"].tolist(), v["tbl_tag_valid"].tolist())]
    if "st_spec_has" in v:
        spec = np.flatnonzero(v["st_spec_has"])
        predictor._spec_last = dict(zip(
            spec.tolist(), v["st_spec_value"][spec].tolist()))
        live = np.flatnonzero(v["st_inflight"])
        predictor._inflight = dict(zip(
            live.tolist(), v["st_inflight"][live].tolist()))


#: Geometry key -> :class:`_Layout`.
_LAYOUTS: dict[tuple, _Layout] = {}


def _layout(predictor, ptype) -> _Layout:
    """The table layout of *predictor*'s family and geometry."""
    if ptype == P_VTAGE:
        key = (ptype, len(predictor.geometry) * predictor.tagged_entries,
               predictor.base_entries)
    else:
        key = (ptype, predictor.entries,
               predictor_class(predictor) is TwoDeltaStridePredictor)
    layout = _LAYOUTS.get(key)
    if layout is not None:
        return layout
    if ptype == P_VTAGE:
        __, n, base = key
        specs = [("vt_tags", None, np.int64, n),
                 ("vt_values", None, np.uint64, n),
                 ("vt_conf", None, np.int64, n),
                 ("vt_base_values", "_base_values", np.uint64, base),
                 ("vt_base_conf", "_base_conf", np.int64, base),
                 ("vt_useful", None, np.int8, n)]
        names = ("components", "_base_values", "_base_conf")
    else:
        __, n, two_delta = key
        specs = [("tbl_tags", None, np.uint64, n),
                 ("tbl_values", "_values" if ptype == P_LVP else "_last",
                  np.uint64, n),
                 ("tbl_conf", "_conf", np.int64, n)]
        if ptype == P_STRIDE:
            specs += [("st_stride", "_stride", np.uint64, n)]
            if two_delta:
                specs += [("st_stride2", "_stride2", np.uint64, n)]
            specs += [("st_spec_value", None, np.uint64, n),
                      ("st_inflight", None, np.int64, n),
                      ("st_spec_has", None, np.uint8, n)]
        specs += [("tbl_tag_valid", None, np.uint8, n)]
        names = ("_tags",) + tuple(
            attr for __, attr, *__ in specs if attr is not None)
        if ptype == P_STRIDE:
            names += ("_spec_last", "_inflight")
    layout = _LAYOUTS[key] = _Layout(specs, names)
    return layout


def _marshal_predictor(args, predictor, ptype, vplane, pool):
    """Point *args* at a pooled block for the predictor's tables.

    For a predictor still parked at its constructed state the block gets
    the constructed tables; one a kernel run parked gets a copy of its
    parked block, any other a copy of its lists.  Returns
    ``write_back(out)``, which holds the block across the call and after
    a successful run parks it on the predictor
    (:meth:`ValuePredictor.park`) and writes the scalar state; ``None``
    for a family without tables; or a decline reason string.  The
    predictor itself is not written, so a failed run leaves it as it was.
    Fields the family does not use keep the template's placeholder.
    """
    if ptype not in (P_LVP, P_STRIDE, P_VTAGE):
        return None
    if ptype == P_VTAGE:
        if predictor._conf_threshold is None:
            return "kernel-ineligible:vtage-threshold"
        if len(predictor.geometry) > _MAX_COMPONENTS:
            return "kernel-ineligible:vtage-components"
    fields = _policy_fields(predictor.confidence)
    if fields is None:
        return "kernel-ineligible:confidence-policy"
    (args.conf_kind, args.conf_max_level, args.fpc_prob, args.fpc_taps,
     args.fpc_state) = fields
    fpc = fields[0] == 1

    layout = _layout(predictor, ptype)
    restore = parked_restore(predictor)
    block = pool.take(layout, layout.nbytes)
    address = _address(block)
    if restore is constructed:
        layout.construct(block)
    elif isinstance(restore, partial) and restore.func is _restore_tables:
        np.copyto(block, restore.args[1])
    else:
        _block_from_lists(layout, predictor, block)
    for arg, __, __, __, offset in layout.fields:
        setattr(args, arg, address + offset)

    if ptype == P_VTAGE:
        vt = predictor
        args.vt_ncomp = len(vt.geometry)
        args.vt_entries = vt.tagged_entries
        args.vt_base_mask = vt._base_index_mask
        args.vp_idx, args.vp_tag = vplane.addresses
        args.vt_taps = vt._lfsr._taps
        args.vt_state = vt._lfsr.state
    else:
        args.tbl_mask = predictor.entries - 1
        if ptype == P_STRIDE:
            args.two_delta = "_stride2" in layout.names
            if not args.two_delta:
                args.st_stride2 = args.st_stride

    def write_back(out):
        if fpc:
            predictor.confidence.lfsr.state = out[_O_FPC_STATE] & MASK64
        if ptype == P_VTAGE:
            predictor._tags_gen += out[_O_VT_ALLOCATIONS]
            predictor._lfsr.state = out[_O_VT_STATE] & MASK64
        predictor.park(partial(_restore_tables, layout, block), layout.names)

    return write_back


# ---------------------------------------------------------------------------
# Entry point


def _decline(reason: str) -> None:
    """Record why this run takes the spec loop; returns ``None``."""
    from repro.pipeline import fastsim  # fastsim imports this module

    fastsim.record_fallback(reason)
    return None


#: Names of the kernel's error codes (``ERR_*`` in ``_ckernel.c``); a run
#: that fails records ``kernel-error:<name>`` (the code when unnamed).
_ERRORS = {1: "abi", 2: "bw-window", 3: "bad-arg", 4: "iq-window",
           5: "train-ring"}


def try_run(model, trace, warmup, workload, ptype, vplane):
    """Run the compiled kernel, or record why not and return ``None``.

    The caller (:func:`fastsim.try_run`) has already verified the predictor
    family, the default branch state and that the kernel loads; this adds
    the per-run checks and the array round-trip.  On success the model
    adopts the kernel's final memory and store-set state, which it turns
    into objects when first read.
    """
    lib = _load()
    if lib is None:
        return _decline("no-compiler")
    cfg = model.config
    predictor = model.predictor

    # The kernel starts from fresh state: a component the model has built
    # may hold some, so it is not scanned but declined.
    if model.existing("memory") is not None:
        return _decline("kernel-ineligible:memory-not-fresh")
    if model.existing("store_sets") is not None:
        return _decline("kernel-ineligible:store-sets-not-fresh")

    inputs = kernel_inputs(trace)
    n = inputs.n
    if n == 0:
        return _decline("kernel-ineligible:empty-trace")
    if inputs.max_pc >= _ADDR_LIMIT or inputs.max_addr >= _ADDR_LIMIT:
        return _decline("kernel-ineligible:address-range")
    if inputs.min_seq < 0:
        return _decline("kernel-ineligible:negative-seq")
    if inputs.max_reg >= 64:
        return _decline("kernel-ineligible:register-range")

    key = _config_key(cfg)
    with _SCRATCH_LOCK:
        scratch = _get_scratch()
        args = _KernelArgs.from_buffer_copy(scratch.template(key))
        write_back = _marshal_predictor(args, predictor, ptype, vplane,
                                        scratch.pool)
        if isinstance(write_back, str):
            return _decline(write_back)
        args.n = n
        args.warmup = warmup
        args.ptype = ptype
        for name, address in inputs.addresses:
            setattr(args, name, address)

        # The memory and store-set state block, as the last run left it:
        # the kernel resets what it reads.
        slices = scratch.slices
        state = scratch.pool.take("state", 8 * scratch.state_size)
        state = state.view(np.int64)
        address = _address(state)
        for name, offset in scratch.state_fields:
            setattr(args, name, address + offset)
        out = (_I64 * _N_OUT)()
        args.out = ctypes.addressof(out)

        ret = lib.repro_kernel_run(ctypes.byref(args))
        if ret != 0 or out[_O_ERROR] != 0:
            code = ret or out[_O_ERROR]
            return _decline(f"kernel-error:{_ERRORS.get(code, code)}")

    out = out[:]
    model.adopt("memory", partial(_restore_memory, slices, state, out))
    model.adopt("store_sets", partial(_restore_store_sets, slices, state,
                                      out))
    if write_back is not None:
        write_back(out)

    # ---- assemble the SimResult -----------------------------------------
    result = SimResult(
        workload=workload if workload is not None else trace.name,
        predictor=predictor.name if ptype != 0 else "none",
        recovery=cfg.recovery.value,
    )
    result.n_uops = out[_O_N_UOPS]
    result.cycles = out[_O_CYCLES]
    result.cond_branches = out[_O_COND_BRANCHES]
    result.branch_mispredicts = out[_O_BRANCH_MISP]
    result.btb_redirects = out[_O_BTB_REDIRECTS]
    result.vp_eligible = out[_O_VP_ELIGIBLE]
    result.vp_predicted = out[_O_VP_PREDICTED]
    result.vp_used = out[_O_VP_USED]
    result.vp_correct_used = out[_O_VP_CORRECT_USED]
    result.vp_wrong_used = out[_O_VP_WRONG_USED]
    result.vp_squashes = out[_O_VP_SQUASHES]
    result.vp_harmless_wrong = out[_O_VP_HARMLESS]
    result.vp_reissues = out[_O_VP_REISSUES]
    result.vp_write_delayed = out[_O_VP_WRITE_DELAYED]
    result.mem_violations = out[_O_MEM_VIOLATIONS]
    result.rob_stalls = out[_O_ROB_STALLS]
    result.iq_stalls = out[_O_IQ_STALLS]
    result.l1d_misses = out[_O_L1D_MISSES]
    result.l1d_accesses = out[_O_L1D_HITS] + out[_O_L1D_MISSES]
    result.l2_misses = out[_O_L2_MISSES]
    result.l2_accesses = out[_O_L2_HITS] + out[_O_L2_MISSES]
    return result
