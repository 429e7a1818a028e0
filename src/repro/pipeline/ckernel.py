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
  (:func:`predictor_type`) and, per run, a *fresh* memory hierarchy and
  store-set predictor (it rebuilds their state from flat arrays), a
  stock/Wide/FPC confidence policy, uniform VTAGE components, and
  addresses/PCs below 2**62 (so int64 arithmetic in C is exact, including
  the negative intermediate strides the L2 prefetcher can produce).  Each
  failed check records one ``kernel-ineligible:<check>`` fallback reason.
* **State marshalling** — predictor tables are *copied* into flat numpy
  arrays before the call and written back into the live model objects only
  on success, so a kernel error (``kernel-error:<code>``) or ineligibility
  discovered late leaves the model untouched for the spec loop.

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
import tempfile
from pathlib import Path

import numpy as np

from repro.core.confidence import (
    ConfidencePolicy,
    ForwardProbabilisticCounters,
    WideConfidence,
)
from repro.core.vtage import VTAGEPredictor
from repro.isa.uop import OpClass
from repro.pipeline.config import RecoveryMode
from repro.pipeline.result import SimResult
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.stride import StridePredictor, TwoDeltaStridePredictor
from repro.util.bits import MASK64

#: Where compiled kernels are cached (one ``.so`` per source hash).
CACHE_ENV = "REPRO_CKERNEL_CACHE"

_ABI_VERSION = 1
_BW_WINDOW = 1 << 17
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
        ("pool_units", _PTR), ("n_pools", _I64), ("pool_heap", _PTR),
        # bandwidth limiter windows
        ("bw_fetch_stamp", _PTR), ("bw_fetch_count", _PTR),
        ("bw_taken_stamp", _PTR), ("bw_taken_count", _PTR),
        ("bw_issue_stamp", _PTR), ("bw_issue_count", _PTR),
        ("bw_vpw_stamp", _PTR), ("bw_vpw_count", _PTR),
        # window rings
        ("fq_ring", _PTR), ("rob_ring", _PTR), ("lq_ring", _PTR),
        ("sq_ring", _PTR), ("int_prf_ring", _PTR), ("fp_prf_ring", _PTR),
        ("iq_heap", _PTR),
        # store buffer
        ("sb_seq", _PTR), ("sb_start", _PTR), ("sb_end", _PTR),
        ("sb_ready", _PTR), ("sb_commit", _PTR), ("sb_pc", _PTR),
        # train queue
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

    Exact-type checks on purpose: subclasses (e.g. PerPathStridePredictor
    under TwoDeltaStridePredictor) may override the indexing the plane
    precomputed.
    """
    if predictor is None:
        return P_NONE
    kind = type(predictor)
    if kind is OraclePredictor:
        return P_ORACLE
    if kind is LastValuePredictor:
        return P_LVP
    if kind is StridePredictor or kind is TwoDeltaStridePredictor:
        return P_STRIDE
    if kind is VTAGEPredictor:
        return P_VTAGE
    return None


def _policy_fields(policy):
    """``(conf_kind, max_level, prob_array, taps, state)`` or ``None``.

    Exact type checks: any confidence subclass that overrides transition or
    saturation behaviour must take the spec loop.
    """
    kind = type(policy)
    if kind is ConfidencePolicy or kind is WideConfidence:
        return 0, policy.max_level, np.zeros(1, dtype=np.int64), 0, 0
    if kind is ForwardProbabilisticCounters:
        prob = np.asarray(policy.probability_log2, dtype=np.int64)
        lfsr = policy.lfsr
        return 1, policy.max_level, prob, lfsr._taps, lfsr.state
    return None


def _memory_is_fresh(memory) -> bool:
    for cache in (memory.l1i, memory.l1d, memory.l2):
        if cache.hits or cache.misses or cache.mshr_stalls:
            return False
        if cache._fill_ready or cache._mshr_heap:
            return False
        if any(cache._sets):
            return False
    dram = memory.dram
    if dram.requests or dram.row_hits or dram._open_rows:
        return False
    if dram._channel_free or any(dram._bank_free):
        return False
    pf = memory.prefetcher
    if pf.issued or any(pc != -1 for pc in pf._pcs):
        return False
    return True


def _store_sets_fresh(store_sets) -> bool:
    return (
        not store_sets._ssit
        and not store_sets._lfst
        and store_sets._next_ssid == 0
        and store_sets.violations_trained == 0
    )


# ---------------------------------------------------------------------------
# Entry point


def _decline(reason: str) -> None:
    """Record why this run takes the spec loop; returns ``None``."""
    from repro.pipeline import fastsim  # fastsim imports this module

    fastsim.record_fallback(reason)
    return None


def try_run(model, trace, warmup, workload, ptype, plane, vplane):
    """Run the compiled kernel, or record why not and return ``None``.

    The caller (:func:`fastsim.try_run`) has already verified the predictor
    family, the default branch state and that the kernel loads; this adds
    the per-run checks and performs the array round-trip.
    """
    lib = _load()
    if lib is None:
        return _decline("no-compiler")
    cfg = model.config
    predictor = model.predictor
    memory = model.memory
    store_sets = model.store_sets

    if not _memory_is_fresh(memory):
        return _decline("kernel-ineligible:memory-not-fresh")
    if not _store_sets_fresh(store_sets):
        return _decline("kernel-ineligible:store-sets-not-fresh")

    packed = trace.packed()
    a = packed.arrays
    n = packed.n
    if n == 0:
        return _decline("kernel-ineligible:empty-trace")
    pcs = a["pcs"]
    mem_addrs = a["mem_addrs"]
    dsts = a["dsts"]
    src_flat = a["src_flat"]
    seqs = a["seqs"]
    if int(pcs.max()) >= _ADDR_LIMIT or int(mem_addrs.max()) >= _ADDR_LIMIT:
        return _decline("kernel-ineligible:address-range")
    if int(seqs.min()) < 0:
        return _decline("kernel-ineligible:negative-seq")
    if int(dsts.max(initial=0)) >= 64 or (
            src_flat.size and int(src_flat.max()) >= 64):
        return _decline("kernel-ineligible:register-range")

    keep = []  # arrays that must stay alive across the C call

    def arr(data, dtype):
        out = np.ascontiguousarray(data, dtype=dtype)
        keep.append(out)
        return out

    def ptr(array):
        return array.ctypes.data

    args = _KernelArgs()
    args.abi_version = _ABI_VERSION
    args.n = n
    args.warmup = warmup

    # ---- trace columns + plane ------------------------------------------
    takens = arr(a["takens"].view(np.uint8), np.uint8)
    dst_is_fp = arr(a["dst_is_fp"].view(np.uint8), np.uint8)
    pkeys = arr(
        (pcs.astype(np.uint64) << np.uint64(2))
        ^ a["uop_indexes"].astype(np.uint64),
        np.uint64,
    )
    col = {
        "seqs": arr(seqs, np.int64),
        "pcs": arr(pcs, np.uint64),
        "ops": arr(a["ops"], np.uint8),
        "dsts": arr(dsts, np.int16),
        "values": arr(a["values"], np.uint64),
        "mem_addrs": arr(mem_addrs, np.uint64),
        "mem_sizes": arr(a["mem_sizes"], np.uint16),
        "src_offsets": arr(a["src_offsets"], np.int64),
        "src_flat": arr(src_flat, np.int16),
        "redirect": arr(plane.redirect, np.uint8),
        "scr_pkey": arr(plane.scr_pkey, np.uint64),
    }
    for name, array in col.items():
        setattr(args, name, ptr(array))
    args.takens = ptr(takens)
    args.dst_is_fp = ptr(dst_is_fp)
    args.pkeys = ptr(pkeys)

    # ---- core config -----------------------------------------------------
    args.fetch_width = cfg.fetch_width
    args.taken_width = cfg.max_taken_per_cycle
    args.issue_width = cfg.issue_width
    args.commit_width = cfg.commit_width
    args.frontend = cfg.frontend_depth
    args.backend = cfg.backend_depth
    args.redirect_extra = cfg.redirect_extra
    args.decode_redirect_depth = cfg.decode_redirect_depth
    args.fq_size = cfg.fetch_queue
    args.rob_size = cfg.rob_entries
    args.iq_size = cfg.iq_entries
    args.lq_size = cfg.lq_entries
    args.sq_size = cfg.sq_entries
    args.int_prf_size = max(1, cfg.int_prf - cfg.arch_regs)
    args.fp_prf_size = max(1, cfg.fp_prf - cfg.arch_regs)
    args.vp_write_ports = (
        cfg.vp_write_ports if cfg.vp_write_ports is not None else -1
    )
    args.vp_all_scope = 1 if cfg.vp_scope == "all" else 0
    args.reissue = 1 if cfg.recovery is RecoveryMode.SELECTIVE_REISSUE else 0
    args.lookahead_cap = cfg.squash_lookahead
    sbuf_capacity = cfg.sq_entries + 16
    args.sbuf_capacity = sbuf_capacity

    # ---- functional units ------------------------------------------------
    n_classes = len(OpClass)
    pool_of = {
        OpClass.INT_ALU: 0, OpClass.INT_MUL: 1, OpClass.INT_DIV: 1,
        OpClass.FP_ADD: 2, OpClass.FP_MUL: 3, OpClass.FP_DIV: 3,
        OpClass.LOAD: 4, OpClass.STORE: 4,
        OpClass.BRANCH: 0, OpClass.JUMP: 0, OpClass.CALL: 0,
        OpClass.RET: 0, OpClass.NOP: 0,
    }
    fu_lat = arr([cfg.fu[OpClass(c)].latency for c in range(n_classes)],
                 np.int64)
    fu_occ = arr([cfg.fu[OpClass(c)].occupancy for c in range(n_classes)],
                 np.int64)
    fu_pool = arr([pool_of[OpClass(c)] for c in range(n_classes)], np.int64)
    pool_classes = (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FP_ADD,
                    OpClass.FP_MUL, OpClass.LOAD)
    pool_units = arr([cfg.fu[c].units for c in pool_classes], np.int64)
    pool_heap = arr(np.zeros(int(pool_units.sum()), dtype=np.int64), np.int64)
    args.fu_lat = ptr(fu_lat)
    args.fu_occ = ptr(fu_occ)
    args.fu_pool = ptr(fu_pool)
    args.pool_units = ptr(pool_units)
    args.n_pools = len(pool_classes)
    args.pool_heap = ptr(pool_heap)

    # ---- bandwidth limiter windows --------------------------------------
    def bw_window():
        stamp = arr(np.full(_BW_WINDOW, -1, dtype=np.int64), np.int64)
        count = arr(np.zeros(_BW_WINDOW, dtype=np.int64), np.int64)
        return stamp, count

    fetch_stamp, fetch_count = bw_window()
    taken_stamp, taken_count = bw_window()
    issue_stamp, issue_count = bw_window()
    args.bw_fetch_stamp = ptr(fetch_stamp)
    args.bw_fetch_count = ptr(fetch_count)
    args.bw_taken_stamp = ptr(taken_stamp)
    args.bw_taken_count = ptr(taken_count)
    args.bw_issue_stamp = ptr(issue_stamp)
    args.bw_issue_count = ptr(issue_count)
    if cfg.vp_write_ports is not None:
        vpw_stamp, vpw_count = bw_window()
        args.bw_vpw_stamp = ptr(vpw_stamp)
        args.bw_vpw_count = ptr(vpw_count)
    else:
        args.bw_vpw_stamp = None
        args.bw_vpw_count = None

    # ---- rings + store buffer + train queue -----------------------------
    def ring(size):
        out = arr(np.zeros(max(1, size), dtype=np.int64), np.int64)
        return out

    args.fq_ring = ptr(ring(cfg.fetch_queue))
    args.rob_ring = ptr(ring(cfg.rob_entries))
    args.lq_ring = ptr(ring(cfg.lq_entries))
    args.sq_ring = ptr(ring(cfg.sq_entries))
    args.int_prf_ring = ptr(ring(args.int_prf_size))
    args.fp_prf_ring = ptr(ring(args.fp_prf_size))
    args.iq_heap = ptr(ring(cfg.iq_entries + 1))
    for name in ("sb_seq", "sb_start", "sb_end", "sb_ready", "sb_commit",
                 "sb_pc"):
        setattr(args, name, ptr(ring(sbuf_capacity)))
    args.tq_commit = ptr(ring(n))
    tq_i = arr(np.zeros(n, dtype=np.int32), np.int32)
    args.tq_i = ptr(tq_i)
    args.tq_value = ptr(arr(np.zeros(n, dtype=np.uint64), np.uint64))
    for name in ("tq_provider", "tq_eff", "tq_has"):
        setattr(args, name, ptr(arr(np.zeros(n, dtype=np.int8), np.int8)))

    # ---- memory hierarchy (fresh state, rebuilt on success) --------------
    cache_arrays = {}
    for prefix, cache in (("l1i", memory.l1i), ("l1d", memory.l1d),
                          ("l2", memory.l2)):
        sets = cache.config.sets
        ways = cache.config.ways
        lines = arr(np.full(sets * ways, -1, dtype=np.int64), np.int64)
        fill = arr(np.zeros(sets * ways, dtype=np.int64), np.int64)
        count = arr(np.zeros(sets, dtype=np.int64), np.int64)
        mshr = arr(np.zeros(cache.config.mshrs + 1, dtype=np.int64), np.int64)
        cache_arrays[prefix] = (cache, lines, fill, count, mshr)
        setattr(args, f"{prefix}_sets", sets)
        setattr(args, f"{prefix}_ways", ways)
        setattr(args, f"{prefix}_shift", cache._line_shift)
        setattr(args, f"{prefix}_lat", cache._hit_latency)
        setattr(args, f"{prefix}_mshrs", cache.config.mshrs)
        setattr(args, f"{prefix}_lines", ptr(lines))
        setattr(args, f"{prefix}_fill", ptr(fill))
        setattr(args, f"{prefix}_count", ptr(count))
        setattr(args, f"{prefix}_mshr", ptr(mshr))

    dram = memory.dram
    args.dram_base = dram.base_latency
    args.dram_row_penalty = dram.row_miss_penalty
    args.dram_max = dram.max_latency
    args.dram_banks = dram.n_banks
    args.dram_row_bytes = dram.row_bytes
    args.dram_channel_cycles = dram.channel_cycles
    open_rows = arr(np.full(dram.n_banks, -1, dtype=np.int64), np.int64)
    bank_free = arr(np.zeros(dram.n_banks, dtype=np.int64), np.int64)
    args.dram_open_rows = ptr(open_rows)
    args.dram_bank_free = ptr(bank_free)

    pf = memory.prefetcher
    args.pf_index_bits = pf._index_bits
    args.pf_degree = pf.degree
    args.pf_distance = pf.distance
    pf_n = len(pf._pcs)
    pf_pcs = arr(np.full(pf_n, -1, dtype=np.int64), np.int64)
    pf_last = arr(np.zeros(pf_n, dtype=np.int64), np.int64)
    pf_stride = arr(np.zeros(pf_n, dtype=np.int64), np.int64)
    pf_conf = arr(np.zeros(pf_n, dtype=np.int64), np.int64)
    args.pf_pcs = ptr(pf_pcs)
    args.pf_last = ptr(pf_last)
    args.pf_stride = ptr(pf_stride)
    args.pf_conf = ptr(pf_conf)

    args.ssit_bits = store_sets._ssit_bits
    args.lfst_entries = store_sets.lfst_entries
    ssit = arr(np.full(1 << store_sets._ssit_bits, -1, dtype=np.int64),
               np.int64)
    lfst = arr(np.full(store_sets.lfst_entries, -1, dtype=np.int64), np.int64)
    args.ssit = ptr(ssit)
    args.lfst = ptr(lfst)

    # ---- predictor state (copied; written back only on success) ----------
    args.ptype = ptype
    dummy_i64 = arr(np.zeros(1, dtype=np.int64), np.int64)
    dummy_u64 = arr(np.zeros(1, dtype=np.uint64), np.uint64)
    dummy_u8 = arr(np.zeros(1, dtype=np.uint8), np.uint8)
    dummy_i8 = arr(np.zeros(1, dtype=np.int8), np.int8)
    args.conf_kind = 0
    args.conf_max_level = 0
    args.fpc_prob = ptr(dummy_i64)
    args.fpc_taps = 0
    args.fpc_state = 0
    args.tbl_mask = 0
    args.tbl_tags = ptr(dummy_u64)
    args.tbl_tag_valid = ptr(dummy_u8)
    args.tbl_values = ptr(dummy_u64)
    args.tbl_conf = ptr(dummy_i64)
    args.two_delta = 0
    args.st_stride = ptr(dummy_u64)
    args.st_stride2 = ptr(dummy_u64)
    args.st_spec_value = ptr(dummy_u64)
    args.st_spec_has = ptr(dummy_u8)
    args.st_inflight = ptr(dummy_i64)
    args.vt_ncomp = 0
    args.vt_entries = 0
    args.vt_base_mask = 0
    args.vt_base_values = ptr(dummy_u64)
    args.vt_base_conf = ptr(dummy_i64)
    args.vt_tags = ptr(dummy_i64)
    args.vt_values = ptr(dummy_u64)
    args.vt_conf = ptr(dummy_i64)
    args.vt_useful = ptr(dummy_i8)
    args.vp_idx = ptr(dummy_i64)
    args.vp_tag = ptr(dummy_i64)
    args.vt_taps = 0
    args.vt_state = 0

    tbl = None
    vt_state_arrays = None
    if ptype in (P_LVP, P_STRIDE):
        fields = _policy_fields(predictor.confidence)
        if fields is None:
            return _decline("kernel-ineligible:confidence-policy")
        args.conf_kind, args.conf_max_level, prob, taps, state = fields
        keep.append(prob)
        args.fpc_prob = ptr(prob)
        args.fpc_taps = taps
        args.fpc_state = state
        entries = predictor.entries
        args.tbl_mask = entries - 1
        raw_tags = predictor._tags
        tag_valid = arr([t is not None for t in raw_tags], np.uint8)
        tags = arr([t if t is not None else 0 for t in raw_tags], np.uint64)
        args.tbl_tags = ptr(tags)
        args.tbl_tag_valid = ptr(tag_valid)
        if ptype == P_LVP:
            values = arr(predictor._values, np.uint64)
            conf = arr(predictor._conf, np.int64)
            args.tbl_values = ptr(values)
            args.tbl_conf = ptr(conf)
            tbl = ("lvp", tags, tag_valid, values, conf)
        else:
            two_delta = type(predictor) is TwoDeltaStridePredictor
            last = arr(predictor._last, np.uint64)
            conf = arr(predictor._conf, np.int64)
            stride = arr(predictor._stride, np.uint64)
            stride2 = (
                arr(predictor._stride2, np.uint64) if two_delta else stride
            )
            spec_value = arr(np.zeros(entries, dtype=np.uint64), np.uint64)
            spec_has = arr(np.zeros(entries, dtype=np.uint8), np.uint8)
            inflight = arr(np.zeros(entries, dtype=np.int64), np.int64)
            for idx, value in predictor._spec_last.items():
                spec_value[idx] = value
                spec_has[idx] = 1
            for idx, live in predictor._inflight.items():
                inflight[idx] = live
            args.tbl_values = ptr(last)
            args.tbl_conf = ptr(conf)
            args.two_delta = 1 if two_delta else 0
            args.st_stride = ptr(stride)
            args.st_stride2 = ptr(stride2)
            args.st_spec_value = ptr(spec_value)
            args.st_spec_has = ptr(spec_has)
            args.st_inflight = ptr(inflight)
            tbl = ("stride", tags, tag_valid, last, conf, stride, stride2,
                   two_delta, spec_value, spec_has, inflight)
    elif ptype == P_VTAGE:
        vt = predictor
        if vt._conf_threshold is None:
            return _decline("kernel-ineligible:vtage-threshold")
        fields = _policy_fields(vt.confidence)
        if fields is None:
            return _decline("kernel-ineligible:confidence-policy")
        args.conf_kind, args.conf_max_level, prob, taps, state = fields
        keep.append(prob)
        args.fpc_prob = ptr(prob)
        args.fpc_taps = taps
        args.fpc_state = state
        comps = vt.components
        ncomp = len(comps)
        entries = comps[0].entries if comps else 0
        if (ncomp == 0 or ncomp > _MAX_COMPONENTS
                or any(c.entries != entries for c in comps)):
            return _decline("kernel-ineligible:vtage-components")
        vt_tags = arr(np.concatenate(
            [np.asarray(c.tags, dtype=np.int64) for c in comps]), np.int64)
        vt_values = arr(np.concatenate(
            [np.asarray(c.values, dtype=np.uint64) for c in comps]),
            np.uint64)
        vt_conf = arr(np.concatenate(
            [np.asarray(c.conf, dtype=np.int64) for c in comps]), np.int64)
        vt_useful = arr(np.concatenate(
            [np.asarray(c.useful, dtype=np.int8) for c in comps]), np.int8)
        base_values = arr(vt._base_values, np.uint64)
        base_conf = arr(vt._base_conf, np.int64)
        vp_idx = arr(np.concatenate(vplane.idx), np.int32)
        vp_tag = arr(np.concatenate(vplane.tag), np.int32)
        args.vt_ncomp = ncomp
        args.vt_entries = entries
        args.vt_base_mask = vt._base_index_mask
        args.vt_base_values = ptr(base_values)
        args.vt_base_conf = ptr(base_conf)
        args.vt_tags = ptr(vt_tags)
        args.vt_values = ptr(vt_values)
        args.vt_conf = ptr(vt_conf)
        args.vt_useful = ptr(vt_useful)
        args.vp_idx = ptr(vp_idx)
        args.vp_tag = ptr(vp_tag)
        args.vt_taps = vt._lfsr._taps
        args.vt_state = vt._lfsr.state
        vt_state_arrays = (vt_tags, vt_values, vt_conf, vt_useful,
                           base_values, base_conf, ncomp, entries)

    out = arr(np.zeros(_N_OUT, dtype=np.int64), np.int64)
    args.out = ptr(out)

    ret = lib.repro_kernel_run(ctypes.byref(args))
    if ret != 0 or out[_O_ERROR] != 0:
        return _decline(f"kernel-error:{ret or int(out[_O_ERROR])}")

    # ---- write state back into the live model objects --------------------
    for prefix, (cache, lines, fill, count, mshr) in cache_arrays.items():
        ways = cache.config.ways
        sets = cache.config.sets
        lines2 = lines.reshape(sets, ways)
        fill2 = fill.reshape(sets, ways)
        fill_ready = {}
        cache_sets = cache._sets
        for s in range(sets):
            cnt = int(count[s])
            if not cnt:
                cache_sets[s] = []
                continue
            row = lines2[s, :cnt].tolist()
            cache_sets[s] = row
            for line, ready in zip(row, fill2[s, :cnt].tolist()):
                fill_ready[line] = ready
        cache._fill_ready = fill_ready
        mshr_n = int(out[
            {"l1i": _O_L1I_MSHR_N, "l1d": _O_L1D_MSHR_N,
             "l2": _O_L2_MSHR_N}[prefix]
        ])
        cache._mshr_heap = mshr[:mshr_n].tolist()
        hits_slot, miss_slot, stall_slot = {
            "l1i": (_O_L1I_HITS, _O_L1I_MISSES, _O_L1I_MSHR_STALLS),
            "l1d": (_O_L1D_HITS, _O_L1D_MISSES, _O_L1D_MSHR_STALLS),
            "l2": (_O_L2_HITS, _O_L2_MISSES, _O_L2_MSHR_STALLS),
        }[prefix]
        cache.hits = int(out[hits_slot])
        cache.misses = int(out[miss_slot])
        cache.mshr_stalls = int(out[stall_slot])

    dram.requests = int(out[_O_DRAM_REQUESTS])
    dram.row_hits = int(out[_O_DRAM_ROW_HITS])
    dram._channel_free = int(out[_O_DRAM_CHANNEL_FREE])
    dram._bank_free = bank_free.tolist()
    dram._open_rows = {
        bank: int(row) for bank, row in enumerate(open_rows.tolist())
        if row != -1
    }

    pf._pcs = pf_pcs.tolist()
    pf._last_addr = pf_last.tolist()
    pf._stride = pf_stride.tolist()
    pf._conf = pf_conf.tolist()
    pf.issued = int(out[_O_PF_ISSUED])

    store_sets._ssit = {
        i: int(v) for i, v in enumerate(ssit.tolist()) if v != -1
    }
    store_sets._lfst = {
        i: int(v) for i, v in enumerate(lfst.tolist()) if v != -1
    }
    store_sets._next_ssid = int(out[_O_SS_NEXT_SSID])
    store_sets.violations_trained = int(out[_O_SS_VIOLATIONS])

    if tbl is not None:
        if tbl[0] == "lvp":
            __, tags, tag_valid, values, conf = tbl
            predictor._tags[:] = [
                int(t) if v else None
                for t, v in zip(tags.tolist(), tag_valid.tolist())
            ]
            predictor._values[:] = values.tolist()
            predictor._conf[:] = conf.tolist()
        else:
            (__, tags, tag_valid, last, conf, stride, stride2, two_delta,
             spec_value, spec_has, inflight) = tbl
            predictor._tags[:] = [
                int(t) if v else None
                for t, v in zip(tags.tolist(), tag_valid.tolist())
            ]
            predictor._last[:] = last.tolist()
            predictor._conf[:] = conf.tolist()
            predictor._stride[:] = stride.tolist()
            if two_delta:
                predictor._stride2[:] = stride2.tolist()
            predictor._spec_last.clear()
            predictor._inflight.clear()
            for idx in np.flatnonzero(spec_has).tolist():
                predictor._spec_last[idx] = int(spec_value[idx])
            for idx in np.flatnonzero(inflight).tolist():
                predictor._inflight[idx] = int(inflight[idx])
    elif vt_state_arrays is not None:
        (vt_tags, vt_values, vt_conf, vt_useful, base_values, base_conf,
         ncomp, entries) = vt_state_arrays
        vt = predictor
        for c, comp in enumerate(vt.components):
            lo, hi = c * entries, (c + 1) * entries
            comp.tags[:] = vt_tags[lo:hi].tolist()
            comp.values[:] = vt_values[lo:hi].tolist()
            comp.conf[:] = vt_conf[lo:hi].tolist()
            comp.useful[:] = vt_useful[lo:hi].tolist()
        vt._base_values[:] = base_values.tolist()
        vt._base_conf[:] = base_conf.tolist()
        vt._tags_gen += int(out[_O_VT_ALLOCATIONS])
        vt._lfsr.state = int(out[_O_VT_STATE]) & MASK64
    if args.conf_kind == 1:
        predictor.confidence.lfsr.state = int(out[_O_FPC_STATE]) & MASK64

    # ---- assemble the SimResult -----------------------------------------
    result = SimResult(
        workload=workload if workload is not None else trace.name,
        predictor=predictor.name if ptype != 0 else "none",
        recovery=cfg.recovery.value,
    )
    result.n_uops = int(out[_O_N_UOPS])
    result.cycles = int(out[_O_CYCLES])
    result.cond_branches = int(out[_O_COND_BRANCHES])
    result.branch_mispredicts = int(out[_O_BRANCH_MISP])
    result.btb_redirects = int(out[_O_BTB_REDIRECTS])
    result.vp_eligible = int(out[_O_VP_ELIGIBLE])
    result.vp_predicted = int(out[_O_VP_PREDICTED])
    result.vp_used = int(out[_O_VP_USED])
    result.vp_correct_used = int(out[_O_VP_CORRECT_USED])
    result.vp_wrong_used = int(out[_O_VP_WRONG_USED])
    result.vp_squashes = int(out[_O_VP_SQUASHES])
    result.vp_harmless_wrong = int(out[_O_VP_HARMLESS])
    result.vp_reissues = int(out[_O_VP_REISSUES])
    result.vp_write_delayed = int(out[_O_VP_WRITE_DELAYED])
    result.mem_violations = int(out[_O_MEM_VIOLATIONS])
    result.rob_stalls = int(out[_O_ROB_STALLS])
    result.iq_stalls = int(out[_O_IQ_STALLS])
    result.l1d_misses = int(out[_O_L1D_MISSES])
    result.l1d_accesses = int(out[_O_L1D_HITS]) + int(out[_O_L1D_MISSES])
    result.l2_misses = int(out[_O_L2_MISSES])
    result.l2_accesses = int(out[_O_L2_HITS]) + int(out[_O_L2_MISSES])
    return result
