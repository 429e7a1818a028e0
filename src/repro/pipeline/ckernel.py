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
  A component the model has not built yet is fresh by construction, so
  the common case scans nothing.
* **Marshalling, paid where it belongs** — per-trace inputs (typed
  columns, predictor keys, range reductions) come cached from
  :func:`repro.pipeline.precompute.kernel_inputs`; fixed-size buffers
  (bandwidth windows, rings, store buffer, cache/DRAM/prefetcher/store-set
  arrays) are process-lifetime scratch behind a lock; only the train
  queue, one slot per µop, is allocated per run.
* **State** — the kernel works on new flat numpy arrays, never on the
  predictor's lists.  A predictor whose tables still hold their
  constructed values (checked against the tables on every run) gets
  arrays filled the same way; any other has its lists copied.  Nothing
  is written back until the call succeeds, so a kernel error
  (``kernel-error:<code>``) or ineligibility discovered late leaves the
  model untouched for the spec loop.  On success the predictor keeps the
  final arrays and rebuilds its lists when a caller first reads one
  (:meth:`~repro.predictors.base.ValuePredictor.park`); its scalar state
  (LFSRs, VTAGE's tag generation) is written at once.  Likewise the
  model keeps copies of the final memory and store-set arrays and turns
  them into objects when a caller first reads ``model.memory`` or
  ``model.store_sets``.

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
import threading
from functools import partial
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
from repro.predictors.base import predictor_class
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.stride import StridePredictor, TwoDeltaStridePredictor
from repro.util.bits import MASK64

#: Where compiled kernels are cached (one ``.so`` per source hash).
CACHE_ENV = "REPRO_CKERNEL_CACHE"

_ABI_VERSION = 2
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
# Process-lifetime scratch


class _Scratch:
    """Fixed-size kernel buffers, allocated once per process.

    Sizes follow the core config (rings) and the memory geometry (caches,
    DRAM, prefetcher, store sets), never the trace length; a buffer grows
    only when a run needs more than it holds.  Only what the kernel reads
    before writing is reset per run: cache set counts, pool heaps and the
    DRAM/prefetcher/store-set tables.  Rings, store-buffer slots, cache
    ways and MSHR heaps are read only below their live lengths, and the
    kernel itself returns every bandwidth stamp to -1 (a window count is
    read only under a matching stamp).
    """

    def __init__(self):
        self._buffers: dict[str, tuple[np.ndarray, int]] = {}
        # The geometry of every CoreModel's memory and store sets: the
        # model builds both with their defaults.
        self.memory = MemoryHierarchy()
        self.store_sets = StoreSets()

    def get(self, name: str, size: int, fill=None) -> tuple[np.ndarray, int]:
        """``(array, address)`` of int64 buffer *name*, at least *size*
        entries; a new one starts filled with *fill* (uninitialised when
        ``None``)."""
        buffer = self._buffers.get(name)
        if buffer is None or buffer[0].shape[0] < size:
            size = max(1, size)
            array = (np.empty(size, np.int64) if fill is None
                     else np.full(size, fill, np.int64))
            buffer = self._buffers[name] = (array, array.ctypes.data)
        return buffer

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array, __ in self._buffers.values())


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
# Post-run state, turned into objects when first read


_CACHE_SLOTS = (
    ("l1i", _O_L1I_HITS, _O_L1I_MISSES, _O_L1I_MSHR_STALLS, _O_L1I_MSHR_N),
    ("l1d", _O_L1D_HITS, _O_L1D_MISSES, _O_L1D_MSHR_STALLS, _O_L1D_MSHR_N),
    ("l2", _O_L2_HITS, _O_L2_MISSES, _O_L2_MSHR_STALLS, _O_L2_MSHR_N),
)


def _restore_memory(caches, dram_state, pf_state, memory) -> None:
    """Write a kernel run's final hierarchy state into fresh *memory*.

    Each cache comes as the indices of its non-empty sets, their way
    counts and their ``(line, fill-ready)`` rows, MRU first.
    """
    for (prefix, used, counts, lines, fill, mshr, counters) in caches:
        cache = getattr(memory, prefix)
        fill_ready = {}
        cache_sets = cache._sets
        for k, (s, cnt) in enumerate(zip(used.tolist(), counts.tolist())):
            row = lines[k, :cnt].tolist()
            cache_sets[s] = row
            for line, ready in zip(row, fill[k, :cnt].tolist()):
                fill_ready[line] = ready
        cache._fill_ready = fill_ready
        cache._mshr_heap = mshr.tolist()
        cache.hits, cache.misses, cache.mshr_stalls = counters

    dram = memory.dram
    open_rows, bank_free, (dram.requests, dram.row_hits,
                           dram._channel_free) = dram_state
    dram._bank_free = bank_free.tolist()
    dram._open_rows = {
        bank: int(row) for bank, row in enumerate(open_rows.tolist())
        if row != -1
    }

    pf = memory.prefetcher
    pf_pcs, pf_last, pf_stride, pf_conf, pf.issued = pf_state
    pf._pcs = pf_pcs.tolist()
    pf._last_addr = pf_last.tolist()
    pf._stride = pf_stride.tolist()
    pf._conf = pf_conf.tolist()


def _restore_store_sets(ssit, lfst, next_ssid, violations,
                        store_sets) -> None:
    """Write a kernel run's final store-set tables into fresh *store_sets*."""
    store_sets._ssit = {
        i: int(v) for i, v in enumerate(ssit.tolist()) if v != -1
    }
    store_sets._lfst = {
        i: int(v) for i, v in enumerate(lfst.tolist()) if v != -1
    }
    store_sets._next_ssid = next_ssid
    store_sets.violations_trained = violations


# ---------------------------------------------------------------------------
# Predictor state (new arrays in; parked on the predictor only on success)


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


def _holds_only(value, *tables) -> bool:
    """Whether every list in *tables* holds nothing but *value*."""
    return all(table.count(value) == len(table) for table in tables)


def _tag_list(tags, valid) -> list:
    return [t if v else None for t, v in zip(tags.tolist(), valid.tolist())]


def _restore_lvp(tags, tag_valid, values, conf, predictor) -> None:
    predictor._tags = _tag_list(tags, tag_valid)
    predictor._values = values.tolist()
    predictor._conf = conf.tolist()


def _restore_stride(tags, tag_valid, last, conf, stride, stride2,
                    spec_value, spec_has, inflight, predictor) -> None:
    predictor._tags = _tag_list(tags, tag_valid)
    predictor._last = last.tolist()
    predictor._conf = conf.tolist()
    predictor._stride = stride.tolist()
    if stride2 is not None:
        predictor._stride2 = stride2.tolist()
    spec = np.flatnonzero(spec_has)
    predictor._spec_last = dict(zip(spec.tolist(), spec_value[spec].tolist()))
    live = np.flatnonzero(inflight)
    predictor._inflight = dict(zip(live.tolist(), inflight[live].tolist()))


def _restore_vtage(comps, tags, values, conf, useful, base_values, base_conf,
                   vt) -> None:
    entries = comps[0].entries
    for c, comp in enumerate(comps):
        lo, hi = c * entries, (c + 1) * entries
        comp.tags = tags[lo:hi].tolist()
        comp.values = values[lo:hi].tolist()
        comp.conf = conf[lo:hi].tolist()
        comp.useful = useful[lo:hi].tolist()
    vt._base_values = base_values.tolist()
    vt._base_conf = base_conf.tolist()
    vt.components = comps


def _marshal_predictor(args, predictor, ptype, vplane, keep):
    """Put the predictor's tables into *args* as new arrays.

    A predictor whose tables still hold their constructed values gets
    arrays filled the same way; any other has its lists copied.  The
    check reads the tables, because direct ``train()`` calls leave no
    other trace.  Returns ``write_back(out)`` for a successful run, which
    parks the final arrays on the predictor (:meth:`ValuePredictor.park`)
    and writes the scalar state, or a decline reason string.  The
    predictor's own lists are never written, so a failed run leaves them
    as they were.  *keep* collects arrays that must outlive the call.
    Fields the family does not use point at the placeholder (integers
    stay 0).
    """
    for name in _PREDICTOR_POINTERS:
        setattr(args, name, _PLACEHOLDER_ADDR)
    if ptype not in (P_LVP, P_STRIDE, P_VTAGE):
        return None
    if ptype == P_VTAGE and predictor._conf_threshold is None:
        return "kernel-ineligible:vtage-threshold"
    fields = _policy_fields(predictor.confidence)
    if fields is None:
        return "kernel-ineligible:confidence-policy"
    args.conf_kind, args.conf_max_level, prob, taps, state = fields
    keep.append(prob)
    args.fpc_prob = prob.ctypes.data
    args.fpc_taps = taps
    args.fpc_state = state
    fpc = args.conf_kind == 1

    def new(n, dtype, fill=0):
        """``(array, address)`` of *n* new entries, all *fill*."""
        array = (np.zeros(n, dtype=dtype) if fill == 0
                 else np.full(n, fill, dtype=dtype))
        keep.append(array)
        return array, array.ctypes.data

    def table(rows, dtype, fresh, fill=0):
        """``(array, address)`` of the equal-length lists *rows* end to
        end; when *fresh* they hold only *fill*, so nothing is copied."""
        if fresh:
            return new(len(rows) * len(rows[0]), dtype, fill)
        array = np.array(rows, dtype=dtype).ravel()
        keep.append(array)
        return array, array.ctypes.data

    def write_back_confidence(out):
        if fpc:
            predictor.confidence.lfsr.state = int(out[_O_FPC_STATE]) & MASK64

    if ptype == P_VTAGE:
        vt = predictor
        comps = vt.components
        ncomp = len(comps)
        entries = comps[0].entries if comps else 0
        if (ncomp == 0 or ncomp > _MAX_COMPONENTS
                or any(c.entries != entries for c in comps)):
            return "kernel-ineligible:vtage-components"
        fresh = _holds_only(0, vt._base_values, vt._base_conf) and all(
            _holds_only(-1, c.tags)
            and _holds_only(0, c.values, c.conf, c.useful) for c in comps)
        vt_tags, args.vt_tags = table(
            [c.tags for c in comps], np.int64, fresh, fill=-1)
        vt_values, args.vt_values = table(
            [c.values for c in comps], np.uint64, fresh)
        vt_conf, args.vt_conf = table([c.conf for c in comps], np.int64, fresh)
        vt_useful, args.vt_useful = table(
            [c.useful for c in comps], np.int8, fresh)
        base_values, args.vt_base_values = table(
            [vt._base_values], np.uint64, fresh)
        base_conf, args.vt_base_conf = table([vt._base_conf], np.int64, fresh)
        args.vt_ncomp = ncomp
        args.vt_entries = entries
        args.vt_base_mask = vt._base_index_mask
        args.vp_idx = vplane.idx.ctypes.data
        args.vp_tag = vplane.tag.ctypes.data
        args.vt_taps = vt._lfsr._taps
        args.vt_state = vt._lfsr.state

        def write_back(out):
            vt._tags_gen += int(out[_O_VT_ALLOCATIONS])
            vt._lfsr.state = int(out[_O_VT_STATE]) & MASK64
            write_back_confidence(out)
            vt.park(partial(_restore_vtage, comps, vt_tags, vt_values,
                            vt_conf, vt_useful, base_values, base_conf),
                    ("components", "_base_values", "_base_conf"))

        return write_back

    entries = predictor.entries
    args.tbl_mask = entries - 1
    raw_tags = predictor._tags
    if ptype == P_LVP:
        fresh = (_holds_only(None, raw_tags)
                 and _holds_only(0, predictor._values, predictor._conf))
    else:
        two_delta = isinstance(predictor, TwoDeltaStridePredictor)
        fresh = (
            not predictor._spec_last and not predictor._inflight
            and _holds_only(None, raw_tags)
            and _holds_only(0, predictor._last, predictor._conf,
                            predictor._stride)
            and (not two_delta or _holds_only(0, predictor._stride2)))
    if fresh:
        tags, args.tbl_tags = new(entries, np.uint64)
        tag_valid, args.tbl_tag_valid = new(entries, np.uint8)
    else:
        tags, args.tbl_tags = table(
            [[t if t is not None else 0 for t in raw_tags]], np.uint64, False)
        tag_valid, args.tbl_tag_valid = table(
            [[t is not None for t in raw_tags]], np.uint8, False)

    if ptype == P_LVP:
        values, args.tbl_values = table([predictor._values], np.uint64, fresh)
        conf, args.tbl_conf = table([predictor._conf], np.int64, fresh)

        def write_back(out):
            write_back_confidence(out)
            predictor.park(
                partial(_restore_lvp, tags, tag_valid, values, conf),
                ("_tags", "_values", "_conf"))

        return write_back

    last, args.tbl_values = table([predictor._last], np.uint64, fresh)
    conf, args.tbl_conf = table([predictor._conf], np.int64, fresh)
    stride, args.st_stride = table([predictor._stride], np.uint64, fresh)
    if two_delta:
        stride2, args.st_stride2 = table([predictor._stride2], np.uint64,
                                         fresh)
    else:
        stride2, args.st_stride2 = None, args.st_stride
    spec_value, args.st_spec_value = new(entries, np.uint64)
    spec_has, args.st_spec_has = new(entries, np.uint8)
    inflight, args.st_inflight = new(entries, np.int64)
    for idx, value in predictor._spec_last.items():
        spec_value[idx] = value
        spec_has[idx] = 1
    for idx, live in predictor._inflight.items():
        inflight[idx] = live
    args.two_delta = 1 if two_delta else 0

    def write_back(out):
        write_back_confidence(out)
        predictor.park(
            partial(_restore_stride, tags, tag_valid, last, conf, stride,
                    stride2, spec_value, spec_has, inflight),
            ("_tags", "_last", "_conf", "_stride", "_spec_last", "_inflight")
            + (("_stride2",) if two_delta else ()))

    return write_back


# ---------------------------------------------------------------------------
# Entry point


def _decline(reason: str) -> None:
    """Record why this run takes the spec loop; returns ``None``."""
    from repro.pipeline import fastsim  # fastsim imports this module

    fastsim.record_fallback(reason)
    return None


#: ``OpClass`` -> functional-unit pool (mirrors ``CoreModel._run``'s
#: aliasing), and the op class whose unit count sizes each pool.
_FU_POOL = np.array((0, 1, 1, 2, 3, 3, 4, 4, 0, 0, 0, 0, 0), dtype=np.int64)
_FU_POOL_ADDR = _FU_POOL.ctypes.data
_POOL_CLASSES = (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FP_ADD,
                 OpClass.FP_MUL, OpClass.LOAD)


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

    memory = model.existing("memory")
    if memory is not None and not _memory_is_fresh(memory):
        return _decline("kernel-ineligible:memory-not-fresh")
    store_sets = model.existing("store_sets")
    if store_sets is not None and not _store_sets_fresh(store_sets):
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

    keep = []  # per-run arrays that must stay alive across the C call
    args = _KernelArgs()
    args.abi_version = _ABI_VERSION
    args.n = n
    args.warmup = warmup
    args.ptype = ptype
    write_back = _marshal_predictor(args, predictor, ptype, vplane, keep)
    if isinstance(write_back, str):
        return _decline(write_back)

    # ---- per-µop arrays ---------------------------------------------------
    for name, array in inputs.columns.items():
        setattr(args, name, array.ctypes.data)

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
    fu = [cfg.fu[OpClass(c)] for c in range(len(OpClass))]
    fu_lat = np.array([f.latency for f in fu], dtype=np.int64)
    fu_occ = np.array([f.occupancy for f in fu], dtype=np.int64)
    pool_units = np.array([cfg.fu[c].units for c in _POOL_CLASSES],
                          dtype=np.int64)
    keep += (fu_lat, fu_occ, pool_units)
    args.fu_lat = fu_lat.ctypes.data
    args.fu_occ = fu_occ.ctypes.data
    args.fu_pool = _FU_POOL_ADDR
    args.pool_units = pool_units.ctypes.data
    args.n_pools = len(_POOL_CLASSES)

    # ---- train queue: one slot per µop ----------------------------------
    tq = (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int32),
          np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.int8),
          np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int8))
    keep += tq
    (args.tq_commit, args.tq_i, args.tq_value, args.tq_provider,
     args.tq_eff, args.tq_has) = (a.ctypes.data for a in tq)
    out = np.zeros(_N_OUT, dtype=np.int64)
    args.out = out.ctypes.data

    with _SCRATCH_LOCK:
        scratch = _get_scratch()
        get = scratch.get

        pool_heap, args.pool_heap = get("pool_heap", int(pool_units.sum()))
        pool_heap.fill(0)

        # ---- bandwidth limiter windows ----------------------------------
        windows = ["fetch", "taken", "issue"]
        if cfg.vp_write_ports is not None:
            windows.append("vpw")
        else:
            args.bw_vpw_stamp = None
            args.bw_vpw_count = None
        for w in windows:
            setattr(args, f"bw_{w}_stamp",
                    get(f"bw_{w}_stamp", _BW_WINDOW, fill=-1)[1])
            setattr(args, f"bw_{w}_count", get(f"bw_{w}_count", _BW_WINDOW)[1])

        # ---- rings + store buffer ---------------------------------------
        for name, size in (
                ("fq_ring", cfg.fetch_queue), ("rob_ring", cfg.rob_entries),
                ("lq_ring", cfg.lq_entries), ("sq_ring", cfg.sq_entries),
                ("int_prf_ring", args.int_prf_size),
                ("fp_prf_ring", args.fp_prf_size),
                ("iq_heap", cfg.iq_entries + 1),
                ("sb_seq", sbuf_capacity), ("sb_start", sbuf_capacity),
                ("sb_end", sbuf_capacity), ("sb_ready", sbuf_capacity),
                ("sb_commit", sbuf_capacity), ("sb_pc", sbuf_capacity)):
            setattr(args, name, get(name, size)[1])

        # ---- memory hierarchy and store sets (fresh) --------------------
        geometry = scratch.memory
        cache_arrays = []
        for prefix, *__ in _CACHE_SLOTS:
            cache = getattr(geometry, prefix)
            sets = cache.config.sets
            ways = cache.config.ways
            lines, lines_addr = get(f"{prefix}_lines", sets * ways)
            fill, fill_addr = get(f"{prefix}_fill", sets * ways)
            count, count_addr = get(f"{prefix}_count", sets)
            count[:sets] = 0
            mshr, mshr_addr = get(f"{prefix}_mshr", cache.config.mshrs + 1)
            cache_arrays.append((lines, fill, count, mshr, sets, ways))
            setattr(args, f"{prefix}_sets", sets)
            setattr(args, f"{prefix}_ways", ways)
            setattr(args, f"{prefix}_shift", cache._line_shift)
            setattr(args, f"{prefix}_lat", cache._hit_latency)
            setattr(args, f"{prefix}_mshrs", cache.config.mshrs)
            setattr(args, f"{prefix}_lines", lines_addr)
            setattr(args, f"{prefix}_fill", fill_addr)
            setattr(args, f"{prefix}_count", count_addr)
            setattr(args, f"{prefix}_mshr", mshr_addr)

        dram = geometry.dram
        args.dram_base = dram.base_latency
        args.dram_row_penalty = dram.row_miss_penalty
        args.dram_max = dram.max_latency
        args.dram_banks = dram.n_banks
        args.dram_row_bytes = dram.row_bytes
        args.dram_channel_cycles = dram.channel_cycles
        banks = dram.n_banks
        open_rows, args.dram_open_rows = get("dram_open_rows", banks)
        bank_free, args.dram_bank_free = get("dram_bank_free", banks)
        open_rows[:banks] = -1
        bank_free[:banks] = 0

        pf = geometry.prefetcher
        args.pf_index_bits = pf._index_bits
        args.pf_degree = pf.degree
        args.pf_distance = pf.distance
        pf_n = len(pf._pcs)
        pf_arrays = []
        for name, init in (("pf_pcs", -1), ("pf_last", 0), ("pf_stride", 0),
                           ("pf_conf", 0)):
            array, addr = get(name, pf_n)
            array[:pf_n] = init
            setattr(args, name, addr)
            pf_arrays.append(array)

        ss_geometry = scratch.store_sets
        args.ssit_bits = ss_geometry._ssit_bits
        args.lfst_entries = ss_geometry.lfst_entries
        ssit_n = 1 << ss_geometry._ssit_bits
        lfst_n = ss_geometry.lfst_entries
        ssit, args.ssit = get("ssit", ssit_n)
        lfst, args.lfst = get("lfst", lfst_n)
        ssit[:ssit_n] = -1
        lfst[:lfst_n] = -1

        ret = lib.repro_kernel_run(ctypes.byref(args))
        if ret != 0 or out[_O_ERROR] != 0:
            return _decline(f"kernel-error:{ret or int(out[_O_ERROR])}")

        # ---- copy out the final memory and store-set state --------------
        caches = []
        for (prefix, hits, misses, stalls, mshr_n), (
                lines, fill, count, mshr, sets, ways) in zip(
                    _CACHE_SLOTS, cache_arrays):
            used = np.flatnonzero(count[:sets])
            caches.append((
                prefix, used, count[used],
                lines[:sets * ways].reshape(sets, ways)[used],
                fill[:sets * ways].reshape(sets, ways)[used],
                mshr[:int(out[mshr_n])].copy(),
                (int(out[hits]), int(out[misses]), int(out[stalls])),
            ))
        dram_state = (
            open_rows[:banks].copy(), bank_free[:banks].copy(),
            (int(out[_O_DRAM_REQUESTS]), int(out[_O_DRAM_ROW_HITS]),
             int(out[_O_DRAM_CHANNEL_FREE])),
        )
        pf_state = tuple(a[:pf_n].copy() for a in pf_arrays) + (
            int(out[_O_PF_ISSUED]),)
        ss_state = (ssit[:ssit_n].copy(), lfst[:lfst_n].copy(),
                    int(out[_O_SS_NEXT_SSID]), int(out[_O_SS_VIOLATIONS]))

    model.adopt("memory", partial(_restore_memory, caches, dram_state,
                                  pf_state))
    model.adopt("store_sets", partial(_restore_store_sets, *ss_state))
    if write_back is not None:
        write_back(out)

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
