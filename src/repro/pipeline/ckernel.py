"""Build, load, and drive the compiled cycle-loop kernel.

``_ckernel.c`` (same directory) is a C transliteration of
:meth:`repro.pipeline.core.CoreModel._run` over the precomputed trace plane.
This module owns everything on the Python side of that boundary:

* **Build on demand** — the shared object is compiled with the system C
  compiler (``$CC`` or ``cc``) into a cache directory keyed by the source
  hash, so editing the C source transparently rebuilds.  No compiler, a
  failed build, or a failed load disables the kernel for the process
  (fallback reason ``no-compiler``); nothing is ever a hard dependency.
* **Eligibility** — :func:`decline_reason` is the kernel's whole
  precondition, one ordered list of checks: the predictor families the
  kernel inlines (:func:`predictor_type`), a branch unit, memory
  hierarchy and store-set predictor the model has not built (fresh by
  construction, so nothing is scanned), a predictor born parked at its
  constructed state, a stock/Wide/FPC confidence policy, at most 16
  VTAGE components, then a non-empty trace with addresses/PCs below
  2**62 (so int64 arithmetic in C is exact, including the negative
  intermediate strides the L2 prefetcher can produce), no negative
  sequence number and registers below 64.  It builds nothing: the trace
  checks read one cached reduction of the packed columns
  (:func:`~repro.pipeline.precompute.trace_ranges`).
* **Marshalling, paid where it belongs** — per-trace inputs (typed
  columns and their addresses, predictor keys) come cached from
  :func:`repro.pipeline.precompute.kernel_inputs`.  Per distinct core
  config, a template holds every invariant ``KernelArgs`` field: the
  config, the functional-unit tables, the memory geometry and the
  addresses of process-lifetime scratch (bandwidth windows, IQ counts,
  window rings, store buffer, unit pools, train-queue ring).
  The template is keyed by the config values it reads, since
  ``CoreConfig`` is mutable, and each run copies it.  The memory and
  store-set state block and the predictor-table buffer are scratch too
  (:class:`_Scratch`); the table buffer grows to the largest layout run
  so far.  A run allocates nothing and touches no fresh pages, and the
  kernel resets its own state at entry.
* **State** — a run is a pure function of a fresh model, a predictor
  born parked at its constructed state
  (:func:`~repro.predictors.base.constructed`) and the trace, so nothing
  is scanned or copied in; a predictor whose tables exist (a caller read
  or trained them, or a spec-loop run did) declines with
  ``kernel-ineligible:predictor-not-fresh``.  :func:`run` writes nothing
  back until the call succeeds, so a kernel error (``kernel-error:<name>``)
  leaves the model untouched for the spec loop.  On success only the
  predictor's scalar state (LFSRs, VTAGE's tag generation) is written
  back, and the model and predictor are spent: reading a component or a
  table, or running the model again, raises :class:`RuntimeError`
  (:data:`repro.pipeline.core.SPENT`).  Under ``REPRO_FAST_SIM=0``
  post-run state stays readable.

The kernel returns counters through a single ``out`` array; this module
assembles the :class:`~repro.pipeline.result.SimResult` exactly as the
spec loop does.  Bit-identical results are pinned by the golden grid
(``REPRO_FAST_SIM=0`` vs default) and the equivalence tests.

The same library holds the trace plane's branch walk
(:func:`replay_branches`, ``repro_branch_plane``), so one build and one
load serve both, and :func:`kernel_available` decides both.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from collections import namedtuple
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
from repro.pipeline.core import SPENT
from repro.pipeline.precompute import (
    default_branch_state,
    kernel_inputs,
    trace_ranges,
    vtage_plane,
)
from repro.pipeline.result import SimResult
from repro.predictors.base import constructed, parked_restore, predictor_class
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.stride import StridePredictor, TwoDeltaStridePredictor
from repro.util import profiling
from repro.util.bits import MASK64

#: Where compiled kernels are cached (one ``.so`` per source hash).
CACHE_ENV = "REPRO_CKERNEL_CACHE"

_ABI_VERSION = 5
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
        lib.repro_branch_plane.restype = _I64
        lib.repro_branch_plane.argtypes = [_I64] + [_PTR] * 8
        if lib.repro_kernel_abi_version() != _ABI_VERSION:
            return None
    except OSError:
        return None
    _lib = lib
    return lib


def kernel_available() -> bool:
    """Whether the compiled kernel can be (or has been) loaded."""
    return _load() is not None


def replay_branches(packed, unit):
    """Walk *packed*'s control µops through a fresh branch unit shaped
    like *unit* (only its geometry is read) with ``repro_branch_plane``.

    Returns what :func:`repro.pipeline.precompute._python_walk` returns,
    or ``None`` when the kernel is unavailable or refuses the geometry.
    """
    lib = _load()
    if lib is None:
        return None
    tage, cfg = unit.tage, unit.tage.config
    lfsr = tage._lfsr
    geometry = np.array(  # G_* in _ckernel.c
        [len(tage.components), cfg.tagged_entries, cfg.tag_bits,
         cfg.bimodal_entries, cfg.counter_bits, cfg.useful_bits,
         cfg.u_reset_period, lfsr.state, lfsr._taps, lfsr.width,
         unit.btb.sets, unit.btb.ways, unit.ras.entries,
         *cfg.history_lengths], dtype=np.int64)
    a, n = packed.arrays, packed.n
    columns = [np.ascontiguousarray(a[name]) for name in
               ("ops", "pcs", "takens", "targets")]
    redirect = np.empty(n, dtype=np.uint8)
    ghist64 = np.empty(n, dtype=np.uint64)
    path16 = np.empty(n, dtype=np.uint16)
    arrays = columns + [geometry, redirect, ghist64, path16]
    if lib.repro_branch_plane(n, *(array.ctypes.data for array in arrays)):
        return None
    return redirect, ghist64, path16


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


#: The confidence policies the kernel inlines, by exact type (a subclass
#: may override transition or saturation behaviour): ``conf_kind`` 0 is
#: the saturating counter, 1 is FPC.
_CONF_KINDS = {ConfidencePolicy: 0, WideConfidence: 0,
               ForwardProbabilisticCounters: 1}


def decline_reason(model, trace=None) -> str | None:
    """Why the kernel cannot run *model* over *trace*, or ``None``.

    The kernel's precondition, as one ordered list of checks; the first
    that fails names the reason.  The checks that read no trace come
    first, and with *trace* ``None`` only they run
    (:func:`repro.pipeline.fastsim.fallback_reason`).  Nothing is built:
    the model's components are asked whether they exist, and the trace
    checks read :func:`~repro.pipeline.precompute.trace_ranges`, so a
    declined run leaves the trace's plane cache as it found it.
    """
    predictor = model.predictor
    ptype = predictor_type(predictor)
    if ptype is None:
        return f"unsupported-predictor:{type(predictor).__name__}"
    if not default_branch_state(model):
        return "non-default-branch-state"
    if not kernel_available():
        return "no-compiler"
    if model.existing("memory") is not None:
        return "kernel-ineligible:memory-not-fresh"
    if model.existing("store_sets") is not None:
        return "kernel-ineligible:store-sets-not-fresh"
    if ptype in (P_LVP, P_STRIDE, P_VTAGE):
        if parked_restore(predictor) is not constructed:
            return "kernel-ineligible:predictor-not-fresh"
        if ptype == P_VTAGE and predictor._conf_threshold is None:
            return "kernel-ineligible:vtage-threshold"
        if ptype == P_VTAGE and len(predictor.geometry) > _MAX_COMPONENTS:
            return "kernel-ineligible:vtage-components"
        if type(predictor.confidence) not in _CONF_KINDS:
            return "kernel-ineligible:confidence-policy"
    if trace is None:
        return None
    n, max_pc, max_addr, min_seq, max_reg = trace_ranges(trace)
    if n == 0:
        return "kernel-ineligible:empty-trace"
    if max_pc >= _ADDR_LIMIT or max_addr >= _ADDR_LIMIT:
        return "kernel-ineligible:address-range"
    if min_seq < 0:
        return "kernel-ineligible:negative-seq"
    if max_reg >= 64:  # CoreModel.run refuses it first; guards direct callers
        return "kernel-ineligible:register-range"
    return None


#: FPC probability vector -> ``(array, address)``; a handful per process.
_FPC_PROBS: dict[tuple, tuple[np.ndarray, int]] = {}


def _policy_fields(policy):
    """``(conf_kind, max_level, prob_address, taps, state)`` of a policy
    :func:`decline_reason` accepted."""
    if _CONF_KINDS[type(policy)] == 0:
        return 0, policy.max_level, _PLACEHOLDER_ADDR, 0, 0
    vector = policy.probability_log2
    prob = _FPC_PROBS.get(vector)
    if prob is None:
        array = np.asarray(vector, dtype=np.int64)
        prob = _FPC_PROBS[vector] = (array, array.ctypes.data)
    lfsr = policy.lfsr
    return 1, policy.max_level, prob[1], lfsr._taps, lfsr.state


# ---------------------------------------------------------------------------
# Memory and store-set state: one scratch block


def _state_layout():
    """``(fields, size, geometry)`` of a run's memory and store-set block:
    each array's ``(field, int64 offset)`` in the block, the block's
    length, and the scalar ``KernelArgs`` fields.  Every ``CoreModel``
    builds its memory and store sets with their defaults, so one layout
    serves the process.
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
    for prefix in ("l1i", "l1d", "l2"):
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
    fields = []
    offset = 0
    for name, size in sizes:
        fields.append((name, offset))
        offset += size
    return fields, offset, geometry


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
    for name, address in scratch.state_fields:
        setattr(args, name, address)
    for name in _PREDICTOR_POINTERS:
        setattr(args, name, _PLACEHOLDER_ADDR)
    return args, arrays


class _Scratch:
    """Kernel buffers and argument templates, kept for the process.

    The bandwidth windows and the IQ's per-cycle counts are shared by
    every template: fixed-size, and the kernel hands them back as it got
    them, every stamp -1 and every count 0 (a window count is read only
    under a matching stamp).  Everything else the kernel reads before
    writing it resets at entry: the memory and store-set state block,
    and the predictor tables, which each run constructs in one buffer
    grown to the largest layout so far.  Nothing here grows with the
    trace, and no model or predictor holds any of it after a run.
    """

    def __init__(self):
        self._buffers: dict[str, tuple[np.ndarray, int]] = {}
        #: Config key -> ``(args, arrays)`` (:func:`_template`).
        self.templates: dict[tuple, tuple] = {}
        fields, size, self.geometry = _state_layout()
        state = self.get("state", size)
        #: ``(field, address)`` of each array in the state block.
        self.state_fields = tuple(
            (name, state + 8 * offset) for name, offset in fields)
        #: The predictor-table buffer and its address.
        self._tables = (np.empty(0, dtype=np.uint8), 0)

    def get(self, name: str, size: int, fill=None, dtype=np.int64) -> int:
        """Address of buffer *name*, *size* entries of *dtype*, first
        filled with *fill* (uninitialised when ``None``)."""
        buffer = self._buffers.get(name)
        if buffer is None:
            array = (np.empty(size, dtype) if fill is None
                     else np.full(size, fill, dtype))
            buffer = self._buffers[name] = (array, array.ctypes.data)
        return buffer[1]

    def tables(self, layout: "_Layout") -> int:
        """Address of the predictor-table buffer, holding *layout*'s
        constructed tables."""
        buffer, address = self._tables
        if buffer.nbytes < layout.nbytes:
            buffer = np.empty(layout.nbytes, dtype=np.uint8)
            address = buffer.ctypes.data
            self._tables = buffer, address
        block = buffer[:layout.nbytes]
        block.fill(0)
        block[layout.ones] = 0xFF
        return address

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
        return sum(array.nbytes for array in arrays) + self._tables[0].nbytes


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
# Predictor tables: constructed in scratch, spent on success


class _Layout:
    """Where one predictor geometry's tables sit in the table buffer.

    ``fields`` holds ``(arg, offset)`` per ``KernelArgs`` table pointer,
    8-byte tables first so every table is aligned; ``ones`` is the byte
    range the constructed tables fill with -1 (VTAGE tags), and every
    other byte is 0.
    """

    __slots__ = ("fields", "nbytes", "ones")

    def __init__(self, specs):
        self.fields = []
        self.nbytes = 0
        self.ones = slice(0)
        for arg, itemsize, count in specs:
            self.fields.append((arg, self.nbytes))
            if arg == "vt_tags":
                self.ones = slice(self.nbytes, self.nbytes + 8 * count)
            self.nbytes += itemsize * count


#: Geometry key -> :class:`_Layout`.
_LAYOUTS: dict[tuple, _Layout] = {}


def _layout(predictor, ptype) -> _Layout:
    """The table layout of *predictor*'s family and geometry."""
    two_delta = predictor_class(predictor) is TwoDeltaStridePredictor
    if ptype == P_VTAGE:
        key = (ptype, len(predictor.geometry) * predictor.tagged_entries,
               predictor.base_entries)
    else:
        key = (ptype, predictor.entries, two_delta)
    layout = _LAYOUTS.get(key)
    if layout is not None:
        return layout
    if ptype == P_VTAGE:
        __, n, base = key
        specs = [("vt_tags", 8, n), ("vt_values", 8, n), ("vt_conf", 8, n),
                 ("vt_base_values", 8, base), ("vt_base_conf", 8, base),
                 ("vt_useful", 1, n)]
    else:
        n = key[1]
        specs = [("tbl_tags", 8, n), ("tbl_values", 8, n), ("tbl_conf", 8, n)]
        if ptype == P_STRIDE:
            specs += [("st_stride", 8, n)]
            if two_delta:
                specs += [("st_stride2", 8, n)]
            specs += [("st_spec_value", 8, n), ("st_inflight", 8, n),
                      ("st_spec_has", 1, n)]
        specs += [("tbl_tag_valid", 1, n)]
    layout = _LAYOUTS[key] = _Layout(specs)
    return layout


def _spent(predictor) -> None:
    """The ``restore`` of a predictor a kernel run left: it stays parked
    and every read of a table raises."""
    predictor.park(_spent)
    raise RuntimeError(SPENT)


def _marshal_predictor(args, predictor, ptype, vplane, scratch):
    """Point *args* at the constructed tables of *predictor*'s layout.

    Returns ``write_back(out)``, which after a successful run writes the
    scalar state and parks the predictor on :func:`_spent`, or ``None``
    for a family without tables.  The predictor itself is not written, so
    a failed run leaves it as it was.  Fields the family does not use
    keep the template's placeholder.
    """
    if ptype not in (P_LVP, P_STRIDE, P_VTAGE):
        return None
    fields = _policy_fields(predictor.confidence)
    (args.conf_kind, args.conf_max_level, args.fpc_prob, args.fpc_taps,
     args.fpc_state) = fields
    fpc = fields[0] == 1

    layout = _layout(predictor, ptype)
    address = scratch.tables(layout)
    for arg, offset in layout.fields:
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
            args.two_delta = (predictor_class(predictor)
                              is TwoDeltaStridePredictor)
            if not args.two_delta:
                args.st_stride2 = args.st_stride

    def write_back(out):
        if fpc:
            predictor.confidence.lfsr.state = out[_O_FPC_STATE] & MASK64
        if ptype == P_VTAGE:
            predictor._tags_gen += out[_O_VT_ALLOCATIONS]
            predictor._lfsr.state = out[_O_VT_STATE] & MASK64
        predictor.park(_spent)

    return write_back


# ---------------------------------------------------------------------------
# Entry point


#: Names of the kernel's error codes (``ERR_*`` in ``_ckernel.c``); a run
#: that fails returns ``kernel-error:<name>`` (the code when unnamed).
_ERRORS = {1: "abi", 2: "bw-window", 3: "bad-arg", 4: "iq-window",
           5: "train-ring"}


def run(model, trace, warmup, workload):
    """Run *model* over *trace* on the kernel: its :class:`SimResult`, or
    ``kernel-error:<name>`` when the kernel fails part-way.

    The caller (``CoreModel.run``) has found no :func:`decline_reason`.
    This builds the trace's kernel inputs and, for VTAGE, its plane (both
    cached on the trace), marshals and calls the kernel.  On success the
    model and its predictor are spent (:data:`repro.pipeline.core.SPENT`);
    on an error both are as they were.
    """
    cfg = model.config
    predictor = model.predictor
    ptype = predictor_type(predictor)
    inputs = kernel_inputs(trace)  # first, so a VTAGE plane reuses its keys
    vplane = vtage_plane(trace, predictor) if ptype == P_VTAGE else None
    key = _config_key(cfg)
    with profiling.phase("kernel-c"), _SCRATCH_LOCK:
        scratch = _get_scratch()
        args = _KernelArgs.from_buffer_copy(scratch.template(key))
        write_back = _marshal_predictor(args, predictor, ptype, vplane,
                                        scratch)
        args.n = inputs.n
        args.warmup = warmup
        args.ptype = ptype
        for name, address in inputs.addresses:
            setattr(args, name, address)
        out = (_I64 * _N_OUT)()
        args.out = ctypes.addressof(out)

        ret = _load().repro_kernel_run(ctypes.byref(args))
        if ret != 0 or out[_O_ERROR] != 0:
            code = ret or out[_O_ERROR]
            return f"kernel-error:{_ERRORS.get(code, code)}"

    out = out[:]
    model.spent = True
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
