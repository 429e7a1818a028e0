"""Trace generation and the in-process trace cache for every workload.

A workload is a Table 3 benchmark (:mod:`repro.workloads.names`, whose row
names the kernel standing in for it) or a parameterised scenario
(:mod:`repro.workloads.scenarios`).  :func:`build_trace` serves a trace
from this process's LRU, the persistent trace store or the generator, in
that order.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.isa.trace import Trace
from repro.util import profiling
from repro.util.gcpause import gc_paused
from repro.workloads import kernels_fp, kernels_int, scenarios
from repro.workloads.builder import TraceBuilder
from repro.workloads.invariants import inject_invariants
from repro.workloads.names import get_spec, resolve_seed
from repro.workloads.store import default_trace_store

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
            kernels = kernels_int if spec.suite == "INT" else kernels_fp
            getattr(kernels, spec.kernel)(builder, kernel_target)
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
