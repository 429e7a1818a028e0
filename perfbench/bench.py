"""Workloads, set-up, measured phases and the correctness gate.

``perfbench/run.py`` imports this module once ``src/`` is on ``sys.path``
and the ``REPRO_*`` environment is sanitised.  Two entry points:

* :func:`run_e2e` — the end-to-end run, tracing off;
* :func:`run_traced` — an untraced phase, then a traced phase that times
  each layer from outside by timing calls into its public functions.

Both compare every measured result with a serial in-process
``execute_job`` reference by ``SimResult`` dict equality.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import secrets
import statistics
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro
from fleet import Fleet
from repro.core.vtage import VTAGEPredictor
from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob, execute_job
from repro.experiments.runner import make_predictor
from repro.pipeline import fastsim, precompute
from repro.pipeline.core import CoreModel
from repro.pipeline.result import SimResult
from repro.workloads import catalog
from repro.workloads.store import TRACE_DIR_ENV, TraceStore

#: The six grid workloads every benchmark workload builds on.
GRID_WORKLOADS = ("gzip", "gcc", "wupwise", "crafty", "milc", "h264ref")

#: Set-ups per end-to-end run; ``setup_s`` is their median.  Each is
#: followed by its share of the measured phase (see :func:`run_e2e`).
SETUPS = 3

SHARDS = 2

#: Every REPEAT_EVERY-th cluster request repeats a key already served
#: this run (the cache-read path); the rest are new keys (the write path).
REPEAT_EVERY = 4

#: Per-layer metrics of the service path; in-process workloads have no
#: service and report them as 0.
SERVICE_ONLY = (
    "service.hit_latency_p50_ms", "service.miss_latency_p50_ms",
    "service.overhead_ms", "queue.executed", "queue.cache_hits",
    "queue.coalesced", "queue.requeued", "cluster.imbalance",
)


@dataclass(frozen=True)
class Spec:
    predictors: tuple[str, ...]
    warmup: int
    measure: int
    #: Traces per grid workload.  A job's cost depends on its trace, so
    #: with one trace each a run's speed partly follows its seed; several
    #: average that out where set-up can afford them.
    variants: int = 1
    cluster: bool = False


SPECS = {
    "warm-grid": Spec(("none", "lvp", "2dstride", "vtage"), 4000, 8000,
                      variants=4),
    # Run by hand only, not listed in BENCHMARK.json: ~35 jobs per run
    # spread too widely from seed to seed to hold the bounds.
    "hybrid-long": Spec(("vtage-2dstride",), 8000, 16000),
    "cluster-mixed": Spec(("none", "lvp", "2dstride", "vtage"), 4000, 8000,
                          cluster=True),
}


def traces(spec: Spec, seed: int) -> list[tuple[str, int]]:
    """``(workload, trace seed)`` of every trace *spec* runs under
    benchmark seed *seed*."""
    return [(w, zlib.crc32(f"{w}/{seed}/{v}".encode()))
            for v in range(spec.variants) for w in GRID_WORKLOADS]


def grid_jobs(spec: Spec, seed: int, shift: int) -> list[SimJob]:
    """One pass of *spec*'s jobs under fresh content keys.

    Shifting ``warmup += shift`` and ``n_uops -= shift`` changes every
    content key but keeps the trace identity ``(name, warmup + n_uops,
    seed)``, so a new pass runs no trace generation.
    """
    if shift >= spec.measure // 2:
        raise RuntimeError("ran out of fresh keys: lower --seconds")
    return [
        SimJob.make(w, p, n_uops=spec.measure - shift,
                    warmup=spec.warmup + shift, seed=trace)
        for p in spec.predictors for w, trace in traces(spec, seed)
    ]


def requests(spec: Spec, seed: int):
    """The measured request stream of one target, as batches of
    ``(jobs, repeat)``; each ``jobs`` is one request."""
    return (cluster_requests if spec.cluster else grid_passes)(spec, seed)


def grid_passes(spec: Spec, seed: int):
    """Whole passes, so every measured job mix is the full grid.

    A request is every predictor on one trace, the row a per-benchmark
    figure compares.  Its latency sums a mix of cheap and costly
    predictors, so its median does not sit on the edge between them,
    where the seed's job costs would move it more than the host's speed.
    """
    n = len(traces(spec, seed))
    for shift in itertools.count(1):
        jobs = grid_jobs(spec, seed, shift)
        yield [(tuple(jobs[t::n]), False) for t in range(n)]


def cluster_requests(spec: Spec, seed: int):
    """Single-job requests: fresh keys in a seeded shuffle, with every
    REPEAT_EVERY-th one a seeded pick among the keys already served."""
    shifts = itertools.count(1)
    rng = random.Random(seed)
    fresh: list[SimJob] = []
    served: list[SimJob] = []
    for i in itertools.count(1):
        if i % REPEAT_EVERY == 0:
            yield [((rng.choice(served),), True)]
            continue
        if not fresh:
            fresh = grid_jobs(spec, seed, next(shifts))
            rng.shuffle(fresh)
        job = fresh.pop()
        served.append(job)
        yield [((job,), False)]


@dataclass
class Sample:
    """One request: its jobs, their results and its latency."""

    jobs: tuple[SimJob, ...]
    results: list[SimResult] | None  # None: the request failed
    seconds: float
    repeat: bool

    def pairs(self):
        """``(job, result)`` per job; the result is None on failure."""
        return zip(self.jobs, self.results or [None] * len(self.jobs))


def jobs_of(samples: list[Sample]) -> list[SimJob]:
    return [job for sample in samples for job in sample.jobs]


class InProcess:
    """The in-process target: ``Engine(SerialExecutor(), ResultCache(None))``."""

    maxrss_kb = 0

    def __init__(self):
        self.engine = Engine(SerialExecutor(), ResultCache(None))

    def send(self, jobs) -> list[SimResult]:
        return self.engine.run_jobs(jobs)

    def close(self) -> None:
        pass


class CpuRotation:
    """Moves this process to the next CPU it may use on every call.

    A single-threaded in-process run stays on the CPU the scheduler first
    gave it, and on a shared host the CPUs' speeds drift apart for seconds
    to minutes, so a whole run would time one CPU.  Called between
    batches, it makes every run sample each CPU alike.  Never used for the
    cluster: its shards would inherit the pinned mask.
    """

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def __call__(self) -> None:
        os.sched_setaffinity(0, {self.allowed[self.turn % len(self.allowed)]})
        self.turn += 1

    def restore(self) -> None:
        os.sched_setaffinity(0, self.allowed)


class LayerClock:
    """Wall time and call count per layer, timed around public calls."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def call(self, layer: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[layer] = (self.seconds.get(layer, 0.0)
                                   + perf_counter() - start)
            self.calls[layer] = self.calls.get(layer, 0) + 1

    def ms_per(self, layer: str, count: int) -> float:
        return 1000.0 * self.seconds.get(layer, 0.0) / count if count else 0.0


@dataclass
class Report:
    attempted: int
    failed: int
    generations: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.generations == 0


# -- set-up ---------------------------------------------------------------


def set_up(spec: Spec, seed: int, store_dir: Path,
           clock: LayerClock | None = None):
    """Empty trace store, no daemons → ready to measure.

    Returns ``(seconds, generation seconds, target)``.  The time covers
    trace generation into the fresh store, the fleet spawn up to every
    shard's ready line, and one warm-up pass of the grid.

    With a *clock* (the traced run), the first grid pass first runs
    through :func:`traced_execute` in this process, so the clock sees
    every trace's plane builds cold, before any later call finds them
    cached.
    """
    os.environ[TRACE_DIR_ENV] = str(store_dir)
    catalog.clear_trace_cache()
    start = perf_counter()
    for workload, trace in traces(spec, seed):
        catalog.build_trace(workload, spec.warmup + spec.measure, seed=trace)
    generate_s = perf_counter() - start
    if clock is not None:
        for job in grid_jobs(spec, seed, 0):
            traced_execute(job, clock)
    if spec.cluster:
        src = str(Path(repro.__file__).resolve().parents[1])
        token = secrets.token_hex(16)
        env = dict(os.environ, PYTHONPATH=src, REPRO_SERVICE_TOKEN=token)
        target = Fleet(SHARDS, env, token).start()
    else:
        target = InProcess()
    try:
        for job in grid_jobs(spec, seed, 0):
            target.send([job])
    except BaseException:
        target.close()
        raise
    return perf_counter() - start, generate_s, target


# -- measuring --------------------------------------------------------------


def measure(send, stream, until: float, elapsed: float = 0.0,
            pause=None) -> tuple[list[Sample], float]:
    """Closed loop: send batches from *stream* until the seconds of
    sending, counted on from *elapsed*, reach *until*.

    Returns the samples and the new count.  *pause*, if given, is called
    with each batch's samples outside the timed region.
    """
    samples: list[Sample] = []
    while elapsed < until:
        batch = []
        start = perf_counter()
        for jobs, repeat in next(stream):
            begin = perf_counter()
            try:
                results = send(jobs)
            except Exception:  # noqa: BLE001 - counted in fail_ratio
                traceback.print_exc()
                results = None
            batch.append(Sample(jobs, results, perf_counter() - begin, repeat))
        elapsed += perf_counter() - start
        samples += batch
        if pause is not None:
            pause(batch)
    return samples, elapsed


def completed_per_s(samples: list[Sample], elapsed: float) -> float:
    """Jobs completed per second over the whole phase.

    A whole-phase mean on purpose: the in-process engine pays a ~40 ms
    full garbage collection about once per 24 jobs, so a per-window
    median flips between windows with and without one.
    """
    done = sum(len(s.jobs) for s in samples if s.results is not None)
    return done / elapsed


def generation_mark() -> tuple[int, int]:
    return catalog.generation_count(), _store_entries()


def generations_since(mark: tuple[int, int], spec: Spec) -> int:
    """Trace generations after *mark*: this process's, plus (for the
    cluster) the shard workers', which each persist a new store entry."""
    count = catalog.generation_count() - mark[0]
    if spec.cluster:
        count += _store_entries() - mark[1]
    return count


def _store_entries() -> int:
    return len(TraceStore(os.environ[TRACE_DIR_ENV]).entries())


def add_reference(ref: dict, samples: list[Sample]) -> dict:
    """Add serial in-process ``execute_job`` of every distinct job in
    *samples* not yet in *ref*: content key → (result dict, seconds)."""
    for job in jobs_of(samples):
        key = job.content_key()
        if key not in ref:
            start = perf_counter()
            result = execute_job(job).to_dict()
            ref[key] = (result, perf_counter() - start)
    return ref


def between_batches(ref: dict, batch: list[Sample],
                    rotate: "CpuRotation | None") -> None:
    """The untimed gap after each measured batch: reference runs for its
    new keys, then (in-process) the move to the next CPU."""
    add_reference(ref, batch)
    if rotate is not None:
        rotate()


def mismatches(samples: list[Sample], ref: dict) -> int:
    """Jobs of failed requests plus results that differ from the
    reference."""
    return sum(
        result is None or result.to_dict() != ref[job.content_key()][0]
        for s in samples for job, result in s.pairs()
    )


def peak_rss_mb(fleet_kb: int) -> float:
    """This process's peak RSS plus *fleet_kb*, the fleet's summed
    per-process peaks (0 in-process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + fleet_kb) / 1024.0


def ms(values: list[float]) -> list[float]:
    return [1000.0 * v for v in values]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


# -- end-to-end run -------------------------------------------------------


def run_e2e(workload: str, seed: int, seconds: float, run_dir: Path) -> Report:
    """SETUPS rounds of a timed set-up and its share of the measured phase.

    The set-ups between the rounds spread the measured work over the whole
    run, so one slow stretch of a shared host moves the figures less.
    Each round measures a new target with empty caches, so every round
    replays the same fresh keys from the start of the stream; a key's
    reference runs once, untimed, right after the batch that first sent
    it (the target sits idle meanwhile).
    """
    spec = SPECS[workload]
    ref: dict = {}
    times: list[float] = []
    samples: list[Sample] = []
    elapsed = 0.0
    generations = fleet_kb = 0
    rotate = None if spec.cluster else CpuRotation()
    for i in range(SETUPS):
        setup_s, _, target = set_up(spec, seed, run_dir / f"traces-{i}")
        times.append(setup_s)
        try:
            mark = generation_mark()
            measured, elapsed = measure(
                target.send, requests(spec, seed),
                seconds * (i + 1) / SETUPS, elapsed,
                lambda batch: between_batches(ref, batch, rotate))
            generations += generations_since(mark, spec)
        finally:
            target.close()
            if rotate is not None:
                rotate.restore()
        samples += measured
        fleet_kb = max(fleet_kb, target.maxrss_kb)
    rss = peak_rss_mb(fleet_kb)
    failed = mismatches(samples, ref)
    latencies = ms([s.seconds for s in samples])
    metrics = {
        "jobs_per_s": completed_per_s(samples, elapsed),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90(latencies),
        "setup_s": statistics.median(times),
        "peak_rss_mb": rss,
    }
    repeats = sum(s.repeat for s in samples)
    attempted = len(jobs_of(samples))
    notes = [
        f"measured: {attempted} jobs in {len(samples)} requests ({repeats} "
        f"repeats) in {elapsed:.3f} s; latency samples {len(latencies)}",
        f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted}); "
        f"trace generations after set-up {generations}",
        "setup_s samples: " + " ".join(f"{t:.4f}" for t in times),
    ]
    return Report(attempted, failed, generations, metrics, notes, {
        "setup_s": times,
        "latency_ms": latencies,
        "measured_s": elapsed,
    })


# -- traced run -----------------------------------------------------------


def traced_execute(job: SimJob, clock: LayerClock) -> SimResult:
    """``execute_job`` rebuilt from its public calls, each timed as its layer.

    The plane calls are the ones ``fastsim.try_run`` makes for an eligible
    model; making them first moves their time out of ``core.run`` without
    changing any result.  The returned result went through the wire
    encoding (``to_dict`` + JSON + ``from_dict``).
    """
    trace = clock.call("catalog.build_trace", catalog.build_trace,
                       job.workload, job.warmup + job.n_uops, seed=job.seed)
    predictor = clock.call("runner.make_predictor", make_predictor,
                           job.predictor, fpc=job.fpc, recovery=job.recovery,
                           entries=job.entries)
    model = clock.call("core.model_init", CoreModel,
                       config=job.core_config(), predictor=predictor)
    if fastsim.fast_sim_enabled() and fastsim.fallback_reason(model) is None:
        clock.call("precompute.trace_plane", precompute.trace_plane, trace)
        if type(predictor) is VTAGEPredictor:
            clock.call("precompute.vtage_plane", precompute.vtage_plane,
                       trace, predictor)
    result = clock.call("core.run", model.run, trace, warmup=job.warmup,
                        workload=job.workload)
    return clock.call("result.encode", _round_trip, result)


def _round_trip(result: SimResult) -> SimResult:
    return SimResult.from_dict(json.loads(json.dumps(result.to_dict())))


def _fallbacks() -> int:
    return sum(fastsim.fallback_stats().values())


def _traced_send(engine: Engine, clock: LayerClock):
    """``Engine.run_jobs`` for one request, with the rebuilt
    ``execute_job``."""
    def one(job: SimJob) -> SimResult:
        cached = clock.call("cache.get", engine.cache.get, job)
        if cached is not None:
            return cached
        result = traced_execute(job, clock)
        engine.cache.put(job, result)
        return result
    return lambda jobs: [one(job) for job in jobs]


def _queue_deltas(before: list[dict], after: list[dict]) -> dict[str, float]:
    """Counters from the shards' ``metrics`` op over the traced phase."""
    def delta(*path):
        out = []
        for old, new in zip(before, after):
            for part in path:
                old, new = old[part], new[part]
            out.append(new - old)
        return out

    executed = delta("queue", "stats", "executed")
    hits = sum(delta("cache", "hits"))
    misses = sum(delta("cache", "misses"))
    mean = statistics.mean(executed)
    return {
        "queue.executed": sum(executed),
        "queue.cache_hits": sum(delta("queue", "stats", "cache_hits")),
        "queue.coalesced": sum(delta("queue", "stats", "coalesced")),
        "queue.requeued": sum(delta("queue", "stats", "requeued")),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cluster.imbalance": max(executed) / mean if mean else 0.0,
    }


def run_traced(workload: str, seed: int, seconds: float,
               run_dir: Path) -> Report:
    spec = SPECS[workload]
    clock, setup_clock = LayerClock(), LayerClock()
    _, generate_s, target = set_up(spec, seed, run_dir / "traces-0",
                                   setup_clock)
    stream = requests(spec, seed)
    try:
        mark = generation_mark()
        untraced, untraced_s = measure(target.send, stream, seconds / 2)
        if spec.cluster:
            before = target.metrics()
            with target.timed_routing(clock):
                traced, traced_s = measure(target.send, stream, seconds / 2)
            layer = _queue_deltas(before, target.metrics())
        else:
            cache = target.engine.cache
            hits, misses, fallbacks = cache.hits, cache.misses, _fallbacks()
            traced, traced_s = measure(_traced_send(target.engine, clock),
                                       stream, seconds / 2)
            fallbacks = _fallbacks() - fallbacks
            hits, misses = cache.hits - hits, cache.misses - misses
            layer = {"cache.hit_ratio": hits / (hits + misses),
                     **dict.fromkeys(SERVICE_ONLY, 0)}
    finally:
        target.close()
    measured = untraced + traced
    # Not interleaved here: the fallback count above must be the traced
    # phase's own.
    ref = add_reference({}, measured)
    failed = mismatches(measured, ref)
    if spec.cluster:
        # The layers below the wire ran in the shard workers: rebuild the
        # same new-key jobs here to attribute their time, and replay the
        # request keys through a result cache to time its lookups.
        rebuilt = jobs_of([s for s in traced if not s.repeat])
        fallbacks = _fallbacks()
        rebuilt_failed = sum(
            traced_execute(job, clock).to_dict() != ref[job.content_key()][0]
            for job in rebuilt)
        fallbacks = _fallbacks() - fallbacks
        failed += rebuilt_failed
        layer.update(_service_metrics(traced, ref))
        cache = ResultCache(None)
        for job, result in (pair for s in traced for pair in s.pairs()):
            if clock.call("cache.get", cache.get, job) is None \
                    and result is not None:
                cache.put(job, result)
    else:
        # The traced phase ran the rebuilt path itself; its mismatches
        # are already in ``failed``.
        rebuilt = jobs_of(traced)
        rebuilt_failed = mismatches(traced, ref)
    generations = generations_since(mark, spec)
    n = clock.calls["core.run"]
    uops = sum(job.warmup + job.n_uops for job in rebuilt)
    attempted = len(jobs_of(measured))
    untraced_rate = completed_per_s(untraced, untraced_s)
    traced_rate = completed_per_s(traced, traced_s)
    metrics = {
        "catalog.build_trace_ms": clock.ms_per("catalog.build_trace", n),
        "catalog.generations": generations,
        "store.generate_s": generate_s,
        "runner.make_predictor_ms": clock.ms_per("runner.make_predictor", n),
        "core.model_init_ms": clock.ms_per("core.model_init", n),
        "precompute.trace_plane_ms": clock.ms_per("precompute.trace_plane", n),
        "precompute.vtage_plane_ms": clock.ms_per("precompute.vtage_plane", n),
        "precompute.trace_plane_build_ms": setup_clock.ms_per(
            "precompute.trace_plane", len(traces(spec, seed))),
        "precompute.vtage_plane_build_ms": setup_clock.ms_per(
            "precompute.vtage_plane", len(traces(spec, seed))),
        "core.run_ms": clock.ms_per("core.run", n),
        "core.run_uops_per_s": uops / clock.seconds["core.run"],
        "fastsim.fallback_ratio": fallbacks / n,
        "result.encode_ms": clock.ms_per("result.encode", n),
        "cache.get_ms": clock.ms_per("cache.get", clock.calls["cache.get"]),
        "cluster.route_ms": clock.ms_per("cluster.route", len(traced)),
        "trace.overhead_pct": 100.0 * (untraced_rate - traced_rate)
        / untraced_rate,
        **layer,
    }
    notes = [
        f"untraced phase: {len(untraced)} requests in {untraced_s:.3f} s "
        f"({untraced_rate:.3f} jobs/s)",
        f"traced phase: {len(traced)} requests in {traced_s:.3f} s "
        f"({traced_rate:.3f} jobs/s)",
        f"rebuilt execute_job: {n} jobs, {rebuilt_failed} differ from the "
        "reference",
        f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted}); "
        f"trace generations after set-up {generations}",
    ]
    if not spec.cluster:
        notes.append("service.*, queue.*, cluster.*: no service on an "
                     "in-process workload, reported as 0")
    return Report(attempted, failed, generations, metrics, notes, {
        "layer_seconds": clock.seconds,
        "layer_calls": clock.calls,
        "traced_latency_ms": ms([s.seconds for s in traced]),
    })


def _service_metrics(traced: list[Sample], ref: dict) -> dict[str, float]:
    """Client-observed hit and miss latency, and what a miss costs over
    running the same jobs in-process (``execute_job`` in the reference)."""
    hits = ms([s.seconds for s in traced if s.repeat])
    misses = [s for s in traced if not s.repeat]
    miss_p50 = statistics.median(ms([s.seconds for s in misses]))
    execute_p50 = statistics.median(ms([
        sum(ref[job.content_key()][1] for job in s.jobs) for s in misses]))
    return {
        "service.hit_latency_p50_ms": statistics.median(hits),
        "service.miss_latency_p50_ms": miss_p50,
        "service.overhead_ms": miss_p50 - execute_p50,
    }
