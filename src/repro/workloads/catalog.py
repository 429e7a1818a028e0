"""The benchmark catalog: Table 3 of the paper, mapped to our kernels.

"We use a subset of the SPEC'00 and SPEC'06 suites ... Specifically, we use
12 integer benchmarks and 7 floating-point programs" (Section 7.3).  Each
entry records the paper's program name and reference input alongside the
synthetic kernel that stands in for it (see DESIGN.md for the substitution
rationale).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.isa.trace import Trace
from repro.util import profiling
from repro.util.gcpause import gc_paused
from repro.workloads import kernels_fp, kernels_int, scenarios
from repro.workloads.builder import TraceBuilder
from repro.workloads.invariants import inject_invariants
from repro.workloads.store import default_trace_store


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark of Table 3."""

    name: str            # short name used across figures ("gzip")
    spec_name: str       # full SPEC identifier ("164.gzip")
    suite: str           # "INT" or "FP"
    spec_input: str      # reference input, straight from Table 3
    kernel: Callable[[TraceBuilder, int], None]
    seed: int
    notes: str           # calibration notes / expected behaviour
    # Loop-invariant redundancy calibration (see workloads.invariants):
    # one (count+1)-µop invariant block is spliced in every `redundancy_every`
    # kernel µops.
    redundancy_every: int = 20
    redundancy_count: int = 3


WORKLOADS: tuple[WorkloadSpec, ...] = (
    # ---- CPU2000 -------------------------------------------------------
    WorkloadSpec("gzip", "164.gzip", "INT", "input.source 60",
                 kernels_int.gzip_kernel, 164,
                 "LZ match loops; mixed predictability, modest VP gains",
                 redundancy_every=20, redundancy_count=3),
    WorkloadSpec("wupwise", "168.wupwise", "FP", "wupwise.in",
                 kernels_fp.wupwise_kernel, 168,
                 "strided FP streams; 2D-Stride's best case",
                 redundancy_every=20, redundancy_count=3),
    WorkloadSpec("applu", "173.applu", "FP", "applu.in",
                 kernels_fp.applu_kernel, 173,
                 "boundary-correlated coefficients; VTAGE's case",
                 redundancy_every=16, redundancy_count=3),
    WorkloadSpec("vpr", "175.vpr", "INT",
                 "net.in arch.in place.out dum.out -nodisp -place_only "
                 "-init_t 5 -exit_t 0.005 -alpha_t 0.9412 -inner_num 2",
                 kernels_int.vpr_kernel, 175,
                 "LCG-driven annealing; low-moderate predictability",
                 redundancy_every=22, redundancy_count=3),
    WorkloadSpec("art", "179.art", "FP",
                 "-scanfile c756hel.in -trainfile1 a10.img -trainfile2 hc.img "
                 "-stride 2 -startx 110 -starty 200 -endx 160 -endy 240 -objects 10",
                 kernels_fp.art_kernel, 179,
                 "repeated weight scans; predictable slow loads, big headroom",
                 redundancy_every=11, redundancy_count=3),
    WorkloadSpec("crafty", "186.crafty", "INT", "crafty.in",
                 kernels_int.crafty_kernel, 186,
                 "almost-stable values; low baseline accuracy, needs FPC",
                 redundancy_every=25, redundancy_count=2),
    WorkloadSpec("parser", "197.parser", "INT", "ref.in 2.1.dict -batch",
                 kernels_int.parser_kernel, 197,
                 "hash-chain walks with Zipf word reuse",
                 redundancy_every=18, redundancy_count=3),
    WorkloadSpec("vortex", "255.vortex", "INT", "lendian1.raw",
                 kernels_int.vortex_kernel, 255,
                 "OO dispatch; alternating tags, low baseline accuracy",
                 redundancy_every=11, redundancy_count=3),
    # ---- CPU2006 -------------------------------------------------------
    WorkloadSpec("bzip2", "401.bzip2", "INT", "input.source 280",
                 kernels_int.bzip2_kernel, 401,
                 "histogram/cumulative counters; 2D-Stride's other best case",
                 redundancy_every=18, redundancy_count=3),
    WorkloadSpec("gcc", "403.gcc", "INT", "166.i",
                 kernels_int.gcc_kernel, 403,
                 "grammar-driven kinds correlated with branch history; VTAGE",
                 redundancy_every=16, redundancy_count=3),
    WorkloadSpec("gamess", "416.gamess", "FP", "cytosine.2.config",
                 kernels_fp.gamess_kernel, 416,
                 "phase-switching coefficients; low baseline accuracy",
                 redundancy_every=20, redundancy_count=3),
    WorkloadSpec("mcf", "429.mcf", "INT", "inp.in",
                 kernels_int.mcf_kernel, 429,
                 "DRAM pointer chase; huge oracle headroom",
                 redundancy_every=30, redundancy_count=2),
    WorkloadSpec("milc", "433.milc", "FP", "su3imp.in",
                 kernels_fp.milc_kernel, 433,
                 "streaming, near-unpredictable; FPC trap -> tiny slowdown",
                 redundancy_every=50, redundancy_count=2),
    WorkloadSpec("namd", "444.namd", "FP", "namd.input",
                 kernels_fp.namd_kernel, 444,
                 "~90% coverage, no dependence-limited work: marginal speedup",
                 redundancy_every=9, redundancy_count=3),
    WorkloadSpec("gobmk", "445.gobmk", "INT", "13x13.tst",
                 kernels_int.gobmk_kernel, 445,
                 "almost-stable ownership; low baseline accuracy",
                 redundancy_every=25, redundancy_count=2),
    WorkloadSpec("hmmer", "456.hmmer", "INT", "nph3.hmm",
                 kernels_int.hmmer_kernel, 456,
                 "Viterbi DP; quasi-linear scores, moderate stride cover",
                 redundancy_every=20, redundancy_count=3),
    WorkloadSpec("sjeng", "458.sjeng", "INT", "ref.txt",
                 kernels_int.sjeng_kernel, 458,
                 "chess search; chaotic hashes, low baseline accuracy",
                 redundancy_every=30, redundancy_count=2),
    WorkloadSpec("h264ref", "464.h264ref", "INT",
                 "foreman_ref_encoder_baseline.cfg",
                 kernels_int.h264_kernel, 464,
                 "predictable divisions gate the critical path: small "
                 "coverage, large speedup",
                 redundancy_every=30, redundancy_count=2),
    WorkloadSpec("lbm", "470.lbm", "FP", "reference.dat",
                 kernels_fp.lbm_kernel, 470,
                 "streaming stencil; prefetcher territory, small VP gains",
                 redundancy_every=25, redundancy_count=2),
)

_BY_NAME = {spec.name: spec for spec in WORKLOADS}

INT_WORKLOADS = tuple(w.name for w in WORKLOADS if w.suite == "INT")
FP_WORKLOADS = tuple(w.name for w in WORKLOADS if w.suite == "FP")
ALL_WORKLOADS = tuple(w.name for w in WORKLOADS)

# Trace cache: building traces is pure and deterministic, and the n-µop
# build of a (name, seed) is the head of every longer one (pinned by
# tests/unit/test_trace_digests.py).  So one entry per (name, seed) holds
# the longest trace built so far, and a shorter request gets a slice of
# views, made once per length and kept in the entry's ``slices``.
# The cache is a *bounded* LRU: a long-lived `repro cluster serve` daemon
# sweeping many scenario workloads must not grow it without limit, so
# inserts evict least-recently-used entries past an entry count and a
# packed-byte budget.  An entry holds its packed columns only; the list
# view the spec loop reads is built per run and dropped with it.
# Budget accounting charges each entry its packed bytes *plus* any
# precompute planes attached to it or its slices (``_plane_cache``, see
# pipeline/precompute.py) — planes grow after insertion, so occupancy is
# re-summed at insert time rather than tracked incrementally.
_TRACE_CACHE: OrderedDict[tuple[str, int], Trace] = OrderedDict()

#: Default LRU budgets: entries and packed megabytes.  A 48k-µop packed
#: trace is ~3.5 MB, so the defaults hold every distinct trace of a full
#: reproduction run with room to spare while capping a pathological sweep.
TRACE_CACHE_MAX_ENTRIES = 64
TRACE_CACHE_MAX_MB = 512

# Kernel generations executed in this process; the grid benchmark and
# perfbench use it to prove structurally that warm paths skip generation.
_GEN_COUNT = 0


def _plane_bytes(trace: Trace) -> int:
    """Bytes of precompute planes attached to *trace* (0 when none).

    Inspects the attribute generically so the catalog stays import-free of
    the pipeline layer; the attribute contract lives in
    ``pipeline/precompute.py`` (every plane exposes ``nbytes``).
    """
    planes = getattr(trace, "_plane_cache", {})
    return sum(int(plane.nbytes) for plane in planes.values())


def _charged_bytes(entry: Trace) -> int:
    """What the LRU budget charges one entry: packed + the planes of the
    entry and of its slices (whose columns alias the entry's)."""
    return entry.nbytes + sum(
        _plane_bytes(trace) for trace in (entry, *entry.slices.values()))


def _cache_bytes() -> int:
    return sum(_charged_bytes(trace) for trace in _TRACE_CACHE.values())


def _cache_insert(key: tuple[str, int], trace: Trace) -> Trace:
    """Make *trace* the entry of *key*, replacing a shorter one.

    Then LRU entries past the budgets are evicted.  The newly inserted
    trace itself is never evicted, so a single trace larger than the
    whole byte budget still caches (budget-keeping resumes with the next
    insert).
    """
    trace.store_identity = key
    trace.slices = {}
    _TRACE_CACHE.pop(key, None)
    _TRACE_CACHE[key] = trace
    max_bytes = TRACE_CACHE_MAX_MB * 1024 * 1024
    while len(_TRACE_CACHE) > 1 and (
        len(_TRACE_CACHE) > TRACE_CACHE_MAX_ENTRIES
        or _cache_bytes() > max_bytes
    ):
        _TRACE_CACHE.popitem(last=False)
    return trace


def _slice(entry: Trace, n_uops: int) -> Trace:
    """The first *n_uops* µops of the cached *entry*, made once per
    length; its ``prefix_of`` lends it the entry's branch plane."""
    piece = entry.slices.get(n_uops)
    if piece is None:
        piece = Trace.from_packed(entry.packed().head(n_uops), name=entry.name)
        piece.prefix_of = entry
        entry.slices[n_uops] = piece
    return piece


def resolve_seed(name: str, seed: int | None = None) -> int:
    """The effective build seed for *name*: explicit, else the catalog /
    scenario default.  This is the seed component of every trace identity
    (in-process cache and on-disk store)."""
    if seed is not None:
        return seed
    params = scenarios.parse_scenario_name(name)
    if params is not None:
        return params.default_seed()
    return get_spec(name).seed


def trace_cache_stats() -> dict:
    """Entry and byte occupancy of the in-process LRU.

    ``bytes`` is the total the LRU budget enforces (packed columns plus
    attached precompute planes); ``precompute_bytes`` breaks out the plane
    share so ``repro trace clear --stats`` reports it honestly.
    """
    charged = _cache_bytes()
    packed = sum(trace.nbytes for trace in _TRACE_CACHE.values())
    return {"entries": len(_TRACE_CACHE), "bytes": charged,
            "precompute_bytes": charged - packed}


def generation_count() -> int:
    """Kernel generations executed in this process (store loads excluded)."""
    return _GEN_COUNT


def get_spec(name: str) -> WorkloadSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(ALL_WORKLOADS)}"
        ) from None


def known_workload(name: str) -> bool:
    """True for catalog benchmarks and parameterised scenario names."""
    return name in _BY_NAME or scenarios.is_scenario_name(name)


def _generate_trace(name: str, n_uops: int, effective_seed: int) -> Trace:
    """Generate the first *n_uops* µops of one (name, seed); no cache.

    Runs with the cyclic collector paused: the builder's rows are acyclic
    tuples and lists, so reference counting frees all of them and the
    collector's passes over them would be pure overhead.
    """
    global _GEN_COUNT
    _GEN_COUNT += 1
    params = scenarios.parse_scenario_name(name)
    with gc_paused():
        builder = TraceBuilder(name, seed=effective_seed)
        if params is not None:
            scenarios.scenario_kernel(params, builder, n_uops)
            packed = builder.packed()
        else:
            spec = get_spec(name)
            block = spec.redundancy_count + 1
            dilution = 1.0 + block / spec.redundancy_every
            # Small safety margin: kernels stop at loop-iteration
            # granularity, so aim past the target and trim back to exactly
            # n_uops.
            kernel_target = max(
                1, int(n_uops / dilution) + 2 * spec.redundancy_every + 16
            )
            spec.kernel(builder, kernel_target)
            packed = inject_invariants(
                builder.packed(),
                every=spec.redundancy_every,
                count=spec.redundancy_count,
                seed=effective_seed,
            )
        return Trace.from_packed(packed.head(n_uops), name=name)


def build_trace(name: str, n_uops: int, seed: int | None = None, cache: bool = True) -> Trace:
    """Materialise the µop trace for one benchmark, cheapest source first.

    *name* is either a Table 3 catalog entry or a parameterised scenario
    (``scenario-c*-e*-l*``, see :mod:`repro.workloads.scenarios`).  For
    catalog entries the kernel generates the distinctive value streams and
    the invariant pass splices in the benchmark's calibrated share of
    trivially-redundant values (see :mod:`repro.workloads.invariants`);
    scenarios control their own redundancy through the locality knob.  The
    returned trace has exactly *n_uops* µops.

    Sources are tried in cost order: the in-process LRU cache (the entry
    of ``(name, seed)``, or a slice of it), the persistent trace store
    (``$REPRO_TRACE_DIR``, mmap-loaded packed columns), and finally the
    generator — whose output is persisted to the store so every later
    process loads instead of regenerates.  A longer request replaces the
    cached entry.  All three paths yield bit-identical columns (pinned by
    the store round-trip tests and the golden grid).  ``cache=False``
    generates afresh and touches neither cache.
    """
    effective_seed = resolve_seed(name, seed)
    if not cache:
        with profiling.phase("trace-build"):
            return _generate_trace(name, n_uops, effective_seed)
    key = (name, effective_seed)
    entry = _TRACE_CACHE.get(key)
    if entry is not None and len(entry) >= n_uops:
        _TRACE_CACHE.move_to_end(key)
        return entry if len(entry) == n_uops else _slice(entry, n_uops)
    store = default_trace_store()
    trace = None if store is None else store.get(name, n_uops, effective_seed)
    if trace is None:
        with profiling.phase("trace-build"):
            trace = _generate_trace(name, n_uops, effective_seed)
        if store is not None:
            store.put(trace, name, effective_seed)
    return _cache_insert(key, trace)


def clear_trace_cache() -> None:
    """Drop every cached trace (test isolation, memory pressure)."""
    _TRACE_CACHE.clear()
