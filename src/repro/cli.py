"""Command-line interface.

Usage examples::

    python -m repro.cli run h264ref --predictor vtage-2dstride
    python -m repro.cli -j 4 figure 4 --uops 8000 --warmup 4000
    python -m repro.cli table 1
    python -m repro.cli campaign run fig4 --checkpoint-dir runs/
    python -m repro.cli campaign status --checkpoint-dir runs/
    python -m repro.cli campaign resume fig4 --checkpoint-dir runs/
    python -m repro.cli cache show
    python -m repro.cli cache clear
    python -m repro.cli list

    # The service: one daemon, many clients, one shared hot cache.
    python -m repro.cli -j 4 serve --socket /tmp/repro.sock --journal svc.jsonl
    python -m repro.cli submit --workloads gcc,gzip --predictors lvp,vtage \
        --socket /tmp/repro.sock
    python -m repro.cli status --socket /tmp/repro.sock
    python -m repro.cli campaign run fig4 --backend service --socket /tmp/repro.sock

    # The cluster: N TCP shards, jobs routed by consistent-hashed content
    # key, results shared through one cache directory.
    export REPRO_CACHE_DIR=/srv/repro-results
    python -m repro.cli -j 2 cluster serve --listen 127.0.0.1:7101
    python -m repro.cli -j 2 cluster serve --listen 127.0.0.1:7102 \
        --peer 127.0.0.1:7101
    python -m repro.cli cluster status --shards 127.0.0.1:7101,127.0.0.1:7102
    python -m repro.cli campaign run fig4 --backend cluster \
        --shards 127.0.0.1:7101,127.0.0.1:7102

All simulations go through the experiment engine: ``--jobs/-j`` (or the
``REPRO_JOBS`` environment variable) selects how many worker processes run
the job batches, and ``REPRO_CACHE_DIR`` (or ``--cache-dir``) enables the
persistent result cache that ``cache show``/``cache clear`` manage.
``campaign`` commands execute whole declarative sweeps with an on-disk
journal (``--checkpoint-dir`` or ``REPRO_CHECKPOINT_DIR``): a killed run
resumes from the journal with a bit-identical result set.  ``serve``
turns the same engine into a persistent daemon: ``submit``/``status``/
``results`` talk to it over a Unix socket, and ``campaign run --backend
service`` routes whole sweeps through it.  Results are bit-identical
whatever the parallelism, cache, checkpoint or backend.

The full reference lives in ``docs/cli.md``, regenerated from these
parsers by ``python -m repro.docs`` (CI fails on drift).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine.api import (
    configure_default_engine,
    default_engine,
    set_default_engine,
)
from repro.engine.cache import CACHE_DIR_ENV
from repro.engine.campaign import (
    BACKENDS,
    engine_for_backend,
    progress_printer,
    run_campaign,
)
from repro.engine.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CampaignJournal,
    JournalError,
    default_checkpoint_dir,
)
from repro.engine.client import ServiceClient, ServiceError
from repro.engine.cluster import SHARDS_ENV, ShardRouter
from repro.engine.executors import JOBS_ENV
from repro.engine.faults import FAULTS_ENV, FaultPlan, FaultSpecError
from repro.engine.job import SimJob
from repro.engine.queue import JOB_TIMEOUT_ENV, QUEUE_BOUND_ENV
from repro.engine.service import (
    DEFAULT_HEARTBEAT,
    HEARTBEAT_ENV,
    SOCKET_ENV,
    TOKEN_ENV,
    run_service,
)
from repro.pipeline.fastsim import fallback_stats, kernel_mode
from repro.pipeline.result import SimResult
from repro.experiments import figures, tables
from repro.experiments.campaigns import CAMPAIGNS
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    PREDICTOR_NAMES,
    baseline_result,
    run_workload,
)
from repro.util import profiling
from repro.workloads.catalog import (
    ALL_WORKLOADS,
    WORKLOADS,
    build_trace,
    clear_trace_cache,
    known_workload,
    resolve_seed,
    trace_cache_stats,
)
from repro.workloads.store import TRACE_DIR_ENV, TraceStore, default_trace_store

_FIGURES = {
    "1": figures.figure1,
    "3": figures.figure3,
    "4": figures.figure4,
    "5": figures.figure5,
    "6": figures.figure6,
    "7": figures.figure7,
}
_TABLES = {"1": tables.table1, "2": tables.table2, "3": tables.table3}


def _workload_name(name: str) -> str:
    if not known_workload(name):
        raise argparse.ArgumentTypeError(
            f"unknown workload {name!r} (catalog names are listed by "
            "'repro list'; scenarios look like scenario-c4-e25-l90)"
        )
    return name


def _parse_workloads(raw: str | None) -> tuple[str, ...] | None:
    """Comma-separated workloads: catalog names or ``scenario-c*-e*-l*``."""
    if raw is None:
        return None
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    if not names:
        raise SystemExit(f"--workloads got no workload names: {raw!r}")
    unknown = [n for n in names if not known_workload(n)]
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    return names


def _fallback_note() -> str:
    """The fast-path fallback counters, formatted for --profile output.

    ``none`` means every simulation in this process took the fast path;
    anything else names the structured reasons (and counts) runs silently
    degraded to the sequential model.  Pool-backend workers keep their own
    counters, so under ``-j N`` this reports the parent process only.
    """
    stats = fallback_stats()
    if not stats:
        return "none"
    return ",".join(f"{reason}={count}"
                    for reason, count in sorted(stats.items()))


def cmd_run(args: argparse.Namespace) -> int:
    if args.profile:
        profiling.enable()
    result = run_workload(args.workload, args.predictor, n_uops=args.uops,
                          warmup=args.warmup, recovery=args.recovery,
                          fpc=not args.no_fpc)
    print(result.summary_line())
    if args.predictor != "none":
        base = baseline_result(args.workload, n_uops=args.uops,
                               warmup=args.warmup)
        print(f"speedup over no-VP baseline: {result.speedup_over(base):.3f}x")
    if args.profile:
        profiling.disable()
        print(profiling.format_report(), file=sys.stderr)
        print(f"profile: kernel={kernel_mode()} "
              f"fastsim-fallbacks={_fallback_note()}", file=sys.stderr)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    print(_TABLES[args.which]())
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    fn = _FIGURES[args.which]
    kwargs = {"workloads": _parse_workloads(args.workloads) or ALL_WORKLOADS}
    if args.which != "1":
        kwargs.update(n_uops=args.uops, warmup=args.warmup)
    else:
        kwargs.update(n_uops=args.uops)
    fig = fn(**kwargs)
    print(fig.text)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("predictors:", ", ".join(PREDICTOR_NAMES))
    print()
    print("workloads (Table 3):")
    for spec in WORKLOADS:
        print(f"  {spec.name:<10} {spec.spec_name:<12} {spec.suite:<4} {spec.notes}")
    print()
    print("plus parameterised scenarios: scenario-c<chase>-e<entropy>-l<locality>")
    print("  (e.g. scenario-c4-e25-l90; see repro.workloads.scenarios)")
    print()
    print("campaigns (repro campaign run <name>):")
    for name, definition in CAMPAIGNS.items():
        print(f"  {name:<16} {definition.help}")
    return 0


def _checkpoint_dir(args: argparse.Namespace) -> Path | None:
    if args.checkpoint_dir:
        return Path(args.checkpoint_dir)
    return default_checkpoint_dir()


def _campaign_spec(args: argparse.Namespace):
    definition = CAMPAIGNS[args.name]
    kwargs = {}
    workloads = _parse_workloads(args.workloads)
    if workloads is not None:
        kwargs["workloads"] = workloads
    if args.uops is not None:
        kwargs["n_uops"] = args.uops
    if args.warmup is not None:
        kwargs["warmup"] = args.warmup
    return definition, definition.build(**kwargs)


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name, definition in CAMPAIGNS.items():
            print(f"{name:<16} {definition.help}")
        return 0

    directory = _checkpoint_dir(args)
    if args.action == "status":
        if directory is None:
            raise SystemExit("campaign status needs --checkpoint-dir "
                             f"(or ${CHECKPOINT_DIR_ENV})")
        paths = (sorted(directory.glob("*.jsonl"))
                 if args.name is None
                 else [directory / f"{args.name}.jsonl"])
        if not (directory.is_dir() and paths):
            print(f"no campaign journals under {directory}")
            return 0
        for path in paths:
            if not path.is_file():
                print(f"{path.stem:<16} no journal at {path}")
                continue
            info = CampaignJournal(path).describe()
            total = info["total"]
            if total:
                pct = f"{100.0 * info['done'] / total:5.1f}%"
                print(f"{info['campaign']:<16} {info['done']}/{total} "
                      f"({pct}) done — {path}")
            else:
                print(f"{path.stem:<16} unreadable journal — {path}")
            if info["corrupt_lines"]:
                print(f"{'':<16} {info['corrupt_lines']} corrupt line(s) "
                      "skipped (those jobs re-run on resume)")
        return 0

    # run / resume
    if args.chunk is not None and args.chunk < 1:
        raise SystemExit(f"--chunk must be >= 1, got {args.chunk}")
    definition, spec = _campaign_spec(args)
    journal = None
    if directory is not None:
        journal = directory / f"{spec.name}.jsonl"
    if args.action == "resume":
        if journal is None:
            raise SystemExit("campaign resume needs --checkpoint-dir "
                             f"(or ${CHECKPOINT_DIR_ENV})")
        if not journal.is_file():
            raise SystemExit(f"nothing to resume: no journal at {journal}")

    if args.profile:
        profiling.enable()
    try:
        engine = engine_for_backend(args.backend, args.socket,
                                    shards=_parse_shards(args.shards),
                                    token=args.token)
        if args.backend != "local":
            if args.jobs is not None or args.cache_dir is not None:
                print("note: --jobs/--cache-dir apply to the daemon(s), "
                      "not this client; they are ignored with --backend "
                      f"{args.backend}", file=sys.stderr)
            # --render replays through the default engine's cache; make
            # the service-backed engine that default so rendering never
            # re-simulates locally what the daemon already ran.
            set_default_engine(engine)
        result = run_campaign(spec, engine=engine, journal=journal,
                              chunk_size=args.chunk,
                              progress=progress_printer(spec.name),
                              force=args.force)
    except (JournalError, ServiceError) as exc:
        raise SystemExit(f"error: {exc}") from None
    stats = result.stats
    print(file=sys.stderr)
    print(f"campaign {spec.name}: {stats['total']} unique jobs — "
          f"{stats['from_journal']} from journal, "
          f"{stats['executed']} executed "
          f"({stats['cache_hits']} answered by the result cache)")
    if journal is not None:
        print(f"journal: {journal}")
    if args.render and definition.render is not None:
        print()
        print(definition.render(result))
    if args.profile:
        profiling.disable()
        print(profiling.format_report(), file=sys.stderr)
        print(f"profile: kernel={kernel_mode()} "
              f"fastsim-fallbacks={_fallback_note()}", file=sys.stderr)
    return 0


def _trace_store(args: argparse.Namespace) -> TraceStore:
    if args.trace_dir:
        return TraceStore(args.trace_dir)
    store = default_trace_store()
    if store is None:
        raise SystemExit(
            f"the trace store needs --trace-dir (or ${TRACE_DIR_ENV})"
        )
    return store


def cmd_trace(args: argparse.Namespace) -> int:
    store = _trace_store(args)
    if args.action == "build":
        workloads = _parse_workloads(args.workloads)
        if workloads is None:
            raise SystemExit("trace build needs --workloads")
        total = args.warmup + args.uops
        for name in workloads:
            seed = resolve_seed(name, args.seed)
            if store.get(name, total, seed) is not None:
                print(f"{name:<24} {total:>8} µops seed {seed}: already stored")
                continue
            trace = build_trace(name, total, seed=args.seed, cache=False)
            store.put(trace, name, total, seed)
            print(f"{name:<24} {total:>8} µops seed {seed}: "
                  f"built and stored ({trace.nbytes / 1024:.0f} KB packed)")
        return 0
    if args.action == "ls":
        rows = store.entries()
        if args.provenance:
            rows = [r for r in rows if r["provenance"] == args.provenance]
        if not rows:
            print(f"no stored traces under {store.directory}")
            return 0
        for row in sorted(rows, key=lambda r: (r.get("name", ""),
                                               r.get("n_uops", 0))):
            print(f"{row.get('name', '?'):<24} {row.get('n_uops', 0):>8} µops"
                  f"  seed {row.get('seed', '?'):<6}"
                  f" {int(row.get('nbytes', 0)) / 1024:>9.0f} KB"
                  f"  {row['provenance']:<9}"
                  f"  {row['key'][:12]}…")
        if args.stats:
            stats = store.stats()
            print(f"total: {stats['entries']} trace(s), "
                  f"{stats['bytes'] / (1024 * 1024):.1f} MB under "
                  f"{stats['directory']}")
            print(f"  generated: {stats['generated_entries']} "
                  f"({stats['generated_bytes'] / (1024 * 1024):.1f} MB)  "
                  f"ingested: {stats['ingested_entries']} "
                  f"({stats['ingested_bytes'] / (1024 * 1024):.1f} MB)")
        return 0
    # clear
    disk = store.stats() if args.stats else None
    removed = store.clear(provenance=args.provenance)
    what = f"{args.provenance} " if args.provenance else ""
    print(f"removed {removed} stored {what}trace(s) from {store.directory}")
    if args.stats:
        cache = trace_cache_stats()
        clear_trace_cache()
        print(f"  on-disk: {disk['bytes'] / (1024 * 1024):.1f} MB reclaimed")
        print(f"  in-process LRU: {cache['entries']} entr"
              f"{'y' if cache['entries'] == 1 else 'ies'} dropped, "
              f"{cache['bytes'] / (1024 * 1024):.1f} MB charged "
              f"({cache['precompute_bytes'] / (1024 * 1024):.1f} MB "
              "precompute planes)")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.workloads import ingest

    store = _trace_store(args)
    failures = 0
    for path in args.files:
        try:
            trace, report = ingest.ingest_file(path, store, seed=args.seed)
        except (OSError, ingest.IngestError) as exc:
            print(f"{path}: FAILED — {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"{report.name}: {report.n_uops} µops from {path} "
              f"(seed {report.seed}, {trace.nbytes / 1024:.0f} KB packed, "
              f"{'stored' if report.stored else 'NOT stored'})")
        if report.skipped:
            print(f"  skipped {report.skipped} non-instruction line(s)")
        if report.quarantined:
            shown = report.quarantined[:args.show_quarantined]
            print(f"  quarantined {len(report.quarantined)} line(s):")
            for line_no, reason, text in shown:
                print(f"    line {line_no}: {reason}  [{text}]")
            if len(report.quarantined) > len(shown):
                print(f"    … and {len(report.quarantined) - len(shown)} more")
    return 1 if failures else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.workloads import fuzzer

    registry = (fuzzer.CornerRegistry(args.corners) if args.corners
                else fuzzer.CornerRegistry.default())
    if args.list_corners:
        corners = registry.load()["corners"]
        if not corners:
            print(f"no registered corners under {registry.path}")
            return 0
        for name, entry in sorted(corners.items()):
            print(f"{name:<44} {entry['kind']:<18} {entry['workload']}")
            print(f"    {entry['detail']}")
            print(f"    replay: repro fuzz --replay \"{entry['spec']}\"")
        return 0
    if args.replay:
        outcome = fuzzer.replay(args.replay)
        return 1 if outcome.divergent else 0
    workloads = _parse_workloads(args.workloads)
    predictors = _parse_predictors(args.predictors) if args.predictors else None
    summary = fuzzer.run_fuzz(
        args.budget, args.seed, workloads=workloads, predictors=predictors,
        max_uops=args.max_uops, registry=registry)
    return 1 if summary["divergences"] else 0


def _parse_predictors(raw: str | None) -> tuple[str, ...]:
    """Comma-separated predictor configuration names."""
    names = tuple(name.strip() for name in (raw or "").split(",")
                  if name.strip())
    if not names:
        raise SystemExit(f"--predictors got no predictor names: {raw!r}")
    unknown = [n for n in names if n not in PREDICTOR_NAMES]
    if unknown:
        raise SystemExit(f"unknown predictors: {', '.join(unknown)} "
                         f"(pick from {', '.join(PREDICTOR_NAMES)})")
    return names


def _parse_shards(raw: str | None) -> list[str] | None:
    """Split a ``--shards`` value; ``None`` falls through to the env."""
    if raw is None:
        return None
    pieces = [piece.strip() for piece in raw.split(",") if piece.strip()]
    return pieces or None


def cmd_serve(args: argparse.Namespace) -> int:
    # main() already resolved --jobs/--cache-dir into the default engine;
    # the daemon serves from that engine's cache.
    return run_service(
        args.socket,
        workers=args.jobs,
        cache=default_engine().cache,
        journal_path=args.journal,
        max_depth=args.queue_bound,
        job_timeout=args.job_timeout,
        chaos=args.chaos,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    workloads = _parse_workloads(args.workloads)
    if workloads is None:
        raise SystemExit("submit needs --workloads")
    predictors = _parse_predictors(args.predictors)
    jobs = [
        SimJob.make(workload, predictor, fpc=not args.no_fpc,
                    recovery=args.recovery, n_uops=args.uops,
                    warmup=args.warmup)
        for predictor in predictors
        for workload in workloads
    ]
    try:
        with ServiceClient(args.socket) as client:
            response = client.submit(jobs, wait=not args.no_wait)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    summary = response["summary"]
    print(f"submitted {summary['jobs']} job(s): "
          f"{summary['cache_hits']} answered by the service cache, "
          f"{summary['coalesced']} coalesced with in-flight work, "
          f"{summary['enqueued']} newly enqueued "
          f"(ticket {response['ticket']})")
    if args.no_wait:
        where = f" --socket {args.socket}" if args.socket else ""
        print(f"poll with: repro results {response['ticket']}{where}")
        return 0
    for raw in response["results"]:
        print(SimResult.from_dict(raw).summary_line())
    return 0


def cmd_service_status(args: argparse.Namespace) -> int:
    try:
        with ServiceClient(args.socket) as client:
            server = client.ping()
            status = client.status()
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    queue = status["queue"]
    stats = queue["stats"]
    print(f"service: pid {server['pid']} on {server['socket']} "
          f"(protocol v{server['protocol']})")
    print(f"workers ({len(queue['workers'])}):")
    for worker in queue["workers"]:
        state = worker["task"] or ("idle" if worker["alive"] else "dead")
        print(f"  #{worker['id']} pid {worker['pid']}: {state}")
    print(f"queue: {queue['depth']} outstanding job(s) "
          f"({queue['pending']} waiting for a worker), "
          f"{queue['restarts']} worker restart(s)")
    print(f"lifetime: {stats['submitted']} submitted = "
          f"{stats['cache_hits']} cache hits + "
          f"{stats['coalesced']} coalesced + "
          f"{stats['executed']} executed; "
          f"{stats['requeued']} requeued, {stats['errors']} error(s)")
    traces = queue.get("traces")
    if traces:
        print(f"trace plane: {traces['segments']} shared segment(s) "
              f"({traces['bytes'] / (1024 * 1024):.1f} MB, "
              f"{traces['leased']} leased) — "
              f"{traces['materialized']} materialized, "
              f"{traces['shared']} lease(s) served, "
              f"{traces['failures']} failure(s)")
    cache = status["cache"]
    where = cache["directory"] or "memory-only"
    print(f"cache: {where} — {cache['memory_entries']} in memory, "
          f"{cache['disk_entries']} on disk")
    journal = status["journal"]
    if journal["path"]:
        print(f"journal: {journal['path']} — {journal['entries']} entries "
              f"({journal['replayed']} replayed at startup)")
    else:
        print("journal: disabled (start the service with --journal)")
    if status["tickets"]:
        print("open tickets:")
        for ticket_id, ticket in sorted(status["tickets"].items(),
                                        key=lambda kv: int(kv[0])):
            print(f"  #{ticket_id}: {ticket['done']}/{ticket['jobs']} done")
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    try:
        with ServiceClient(args.socket) as client:
            response = client.results(args.ticket)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    if response.get("pending"):
        print(f"ticket {args.ticket}: {response['done']}/{response['total']} "
              "job(s) done — still running")
        return 1
    for raw in response["results"]:
        print(SimResult.from_dict(raw).summary_line())
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    try:
        with ServiceClient(args.socket, timeout=args.timeout) as client:
            health = client.health()
    except ServiceError as exc:
        print(f"unhealthy: {exc}")
        return 2
    workers = health["workers"]
    bound = health["max_depth"]
    depth = (f"{health['depth']}/{bound}" if bound
             else str(health["depth"]))
    timeout = health["job_timeout"]
    print(f"{'ok' if health['ok'] else 'unhealthy'}: pid {health['pid']}, "
          f"{workers['alive']}/{workers['total']} worker(s) alive "
          f"({workers['busy']} busy), depth {depth}, "
          f"job timeout {f'{timeout:g}s' if timeout else 'off'}")
    print(f"lifetime: {health['restarts']} worker restart(s), "
          f"{health['timeouts']} job timeout(s), "
          f"{health['rejected']} batch(es) shed as overloaded")
    degraded = health["degraded"]
    if health["degraded_mode"]:
        flags = ", ".join(f"{name}={count}"
                          for name, count in sorted(degraded.items())
                          if count)
        print(f"DEGRADED: {flags}")
    else:
        print("degraded: no (journal, cache and shm all healthy)")
    if health.get("chaos"):
        print("chaos: a fault plan is active (inspect with `repro chaos`)")
    if not health["ok"]:
        return 2
    return 1 if health["degraded_mode"] else 0


def _print_fault_plan(plan: dict) -> None:
    print(f"seed: {plan['seed']}")
    print("rules:")
    for rule in plan["rules"]:
        print(f"  {rule}")
    if plan["hits"]:
        print("site traffic (hits/fired):")
        for site in sorted(plan["hits"]):
            print(f"  {site}: {plan['hits'][site]}"
                  f"/{plan['fired'].get(site, 0)}")


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.action == "check":
        try:
            plan = FaultPlan.parse(args.spec, seed=args.seed)
        except FaultSpecError as exc:
            raise SystemExit(f"bad fault spec: {exc}") from None
        print(f"valid plan ({len(plan.rules)} rule(s)); run it with:")
        print(f"  {FAULTS_ENV}='{plan.to_spec()}' "
              f"REPRO_FAULTS_SEED={plan.seed} repro serve --chaos ...")
        _print_fault_plan(plan.describe())
        return 0
    # show: query a --chaos daemon for its live plan and counters
    try:
        with ServiceClient(args.socket) as client:
            plan = client.chaos()
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    if plan is None:
        print("chaos daemon reachable, but no fault plan is active "
              f"(set ${FAULTS_ENV} before starting it)")
        return 0
    _print_fault_plan(plan)
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    if args.action == "serve":
        # A cluster shard is the ordinary daemon on a TCP transport; the
        # shared flags (-j, --journal, --queue-bound, ...) mean the same.
        return run_service(
            None,
            workers=args.jobs,
            cache=default_engine().cache,
            journal_path=args.journal,
            max_depth=args.queue_bound,
            job_timeout=args.job_timeout,
            chaos=args.chaos,
            listen=args.listen,
            token=args.token,
            peers=args.peer or [],
            heartbeat_interval=args.heartbeat_interval,
        )
    if args.action == "soak":
        return _cmd_cluster_soak(args)
    try:
        router = ShardRouter(_parse_shards(args.shards), token=args.token)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.action == "status":
        return _print_cluster_status(router.status())
    # run: a predictors x workloads grid, routed across the shards
    workloads = _parse_workloads(args.workloads)
    if workloads is None:
        raise SystemExit("cluster run needs --workloads")
    predictors = _parse_predictors(args.predictors)
    jobs = [
        SimJob.make(workload, predictor, fpc=not args.no_fpc,
                    recovery=args.recovery, n_uops=args.uops,
                    warmup=args.warmup)
        for predictor in predictors
        for workload in workloads
    ]
    try:
        results = router.run_jobs(jobs)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    for result in results:
        print(result.summary_line())
    stats = router.stats
    note = (f"cluster: {stats['routed_jobs']} job(s) routed across "
            f"{len(router.alive_shards())}/{len(router.ring.shards)} "
            f"shard(s)")
    if stats["failovers"]:
        note += (f"; {stats['failovers']} shard(s) dropped, "
                 f"{stats['rerouted_jobs']} job(s) re-routed")
    print(note, file=sys.stderr)
    return 0


def _cmd_cluster_soak(args: argparse.Namespace) -> int:
    """Run the self-healing soak harness (``repro cluster soak``)."""
    import json as _json
    import tempfile

    from repro.engine.soak import SoakConfig, run_soak

    config = SoakConfig(shards=args.shards, clients=args.clients,
                        batches_per_client=args.batches,
                        seed=args.seed, deadline_s=args.duration,
                        heartbeat_interval_s=args.heartbeat_interval)
    log = (lambda line: print(line, file=sys.stderr, flush=True)) \
        if not args.quiet else None
    if args.journal_dir:
        report = run_soak(config, args.journal_dir, log=log)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as scratch:
            report = run_soak(config, scratch, log=log)
    print(_json.dumps(report.to_dict(), indent=1, sort_keys=True))
    return 0 if report.passed() else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench promote``: guarded baseline promotion."""
    from repro.bench import PromoteError, promote

    try:
        promoted = promote(args.names or None, source_dir=args.source,
                           allow_loaded=args.allow_loaded)
    except PromoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in promoted:
        print(f"promoted {name}")
    return 0


def _print_cluster_status(status: dict) -> int:
    """Render :meth:`ShardRouter.status` (exit 1 if any shard is out)."""
    ring = status["ring"]
    print(f"cluster: {ring['alive']}/{ring['shards']} shard(s) alive "
          f"({ring['replicas']} ring points per shard)")
    impaired = False
    for row in status["shards"]:
        address = row["address"]
        if row["down"]:
            note = f"shard {address}: DOWN — {row.get('reason', 'marked down')}"
            if "next_probe_in_s" in row:
                note += (f" (probation: {row.get('probe_failures', 0)} "
                         f"failed probe(s), next in "
                         f"{row['next_probe_in_s']:g}s)")
            print(note)
            impaired = True
            continue
        if "metrics" not in row:
            print(f"shard {address}: unreachable — "
                  f"{row.get('unreachable', 'no metrics')}")
            impaired = True
            continue
        metrics = row["metrics"]
        shard, queue = metrics["shard"], metrics["queue"]
        cache = metrics["cache"]
        print(f"shard {address}: pid {shard['pid']}, "
              f"{shard['workers']} worker(s), up {shard['uptime_s']:.0f}s")
        print(f"  queue: {queue['depth']} deep ({queue['pending']} pending, "
              f"{queue['in_flight']} in flight), "
              f"{queue['workers_alive']} worker(s) alive, "
              f"{queue['restarts']} restart(s)")
        print(f"  cache: {cache['hits']} hit(s) / {cache['misses']} miss(es), "
              f"{cache['memory_entries']} in memory, "
              f"{cache['disk_entries']} on disk")
        membership = metrics.get("membership")
        if membership is not None:
            gossip = membership["gossip"]
            print(f"  membership: epoch {membership['epoch']}, "
                  f"beat {membership['beat']}, "
                  f"{len(membership['alive'])}/{membership['size']} "
                  f"alive in view; gossip {gossip['sent']} sent / "
                  f"{gossip['merged']} merged / "
                  f"{gossip['failures']} failure(s)")
        if metrics["faults"]["active"]:
            print(f"  faults: plan active, "
                  f"{metrics['faults']['fired']} rule(s) fired")
    router = status["router"]
    print(f"router: {router['routed_jobs']} routed, "
          f"{router['misrouted_jobs']} misrouted, "
          f"{router['failovers']} failover(s), "
          f"{router['rerouted_jobs']} re-routed, "
          f"{router.get('probes', 0)} probe(s), "
          f"{router.get('readmissions', 0)} re-admission(s)")
    return 1 if impaired else 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = default_engine().cache
    if args.action == "show":
        stats = cache.stats()
        if stats["directory"] is None:
            print(f"persistent cache: disabled (set ${CACHE_DIR_ENV} or pass "
                  "--cache-dir to enable)")
        else:
            print(f"persistent cache: {stats['directory']}")
            print(f"  entries: {stats['disk_entries']}")
        print(f"in-process entries: {stats['memory_entries']}")
        return 0
    # clear
    removed = cache.clear(disk=True)
    where = cache.directory or "memory-only cache"
    print(f"cleared {removed} persisted result(s) from {where}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Perais & Seznec, HPCA 2014 "
                    "(VTAGE + FPC value prediction).",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes for simulation batches "
             f"(default: ${JOBS_ENV} or 1; results are bit-identical "
             "regardless of parallelism)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist simulation results under DIR and reuse them on "
             f"later runs (default: ${CACHE_DIR_ENV} or memory-only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument("workload", type=_workload_name, metavar="WORKLOAD",
                       help="a Table 3 benchmark (see 'repro list') or a "
                            "scenario-c<chase>-e<entropy>-l<locality> name")
    run_p.add_argument("--predictor", default="vtage-2dstride",
                       choices=PREDICTOR_NAMES)
    run_p.add_argument("--recovery", default="squash",
                       choices=("squash", "reissue"))
    run_p.add_argument("--no-fpc", action="store_true",
                       help="use plain 3-bit confidence counters")
    run_p.add_argument("--uops", type=int, default=DEFAULT_MEASURE)
    run_p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    run_p.add_argument("--profile", action="store_true",
                       help="print per-phase wall-clock timings (trace "
                            "build / columnize / precompute / simulate / "
                            "kernel-c / cache IO) and "
                            "the active kernel after the run")
    run_p.set_defaults(fn=cmd_run)

    table_p = sub.add_parser("table", help="render a paper table")
    table_p.add_argument("which", choices=sorted(_TABLES))
    table_p.set_defaults(fn=cmd_table)

    figure_p = sub.add_parser("figure", help="reproduce a paper figure")
    figure_p.add_argument("which", choices=sorted(_FIGURES))
    figure_p.add_argument("--workloads", default=None,
                          help="comma-separated subset (default: all 19)")
    figure_p.add_argument("--uops", type=int, default=DEFAULT_MEASURE)
    figure_p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    figure_p.set_defaults(fn=cmd_figure)

    campaign_p = sub.add_parser(
        "campaign",
        help="run, resume or inspect declarative sweep campaigns",
        description="Execute whole sweeps (figure grids, the full "
                    "reproduction, scenario explorations) as declarative "
                    "campaigns with an on-disk journal: every completed "
                    "simulation is checkpointed, and a killed run resumes "
                    "bit-identically from where it stopped.",
    )
    campaign_sub = campaign_p.add_subparsers(dest="action", required=True)

    def _campaign_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("name", choices=sorted(CAMPAIGNS),
                       help="registered campaign")
        p.add_argument("--workloads", default=None,
                       help="comma-separated workload subset (catalog or "
                            "scenario-c*-e*-l* names; default: the "
                            "campaign's own grid)")
        p.add_argument("--uops", type=int, default=None,
                       help="measured µops per job (default: the "
                            "campaign's own slice)")
        p.add_argument("--warmup", type=int, default=None,
                       help="warm-up µops per job (default: the "
                            "campaign's own slice)")
        p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="journal completed jobs under DIR/<name>.jsonl "
                            f"(default: ${CHECKPOINT_DIR_ENV} or no journal)")
        p.add_argument("--chunk", type=int, default=None, metavar="N",
                       help="jobs per checkpointed batch (default: 1 "
                            "serial, 4x workers with a pool)")
        p.add_argument("--force", action="store_true",
                       help="rotate aside a journal that belongs to a "
                            "different job set and start over")
        p.add_argument("--render", action="store_true",
                       help="print the campaign's figure/table after the run")
        p.add_argument("--backend", default="local", choices=BACKENDS,
                       help="where job batches execute: in this process "
                            "('local'), on a running `repro serve` "
                            "daemon ('service'), or across `repro "
                            "cluster serve` shards ('cluster')")
        p.add_argument("--socket", default=None, metavar="PATH",
                       help="service socket for --backend service "
                            f"(default: ${SOCKET_ENV} or "
                            "./repro-service.sock)")
        p.add_argument("--shards", default=None, metavar="ADDR,ADDR",
                       help="comma-separated shard addresses for "
                            "--backend cluster "
                            f"(default: ${SHARDS_ENV})")
        p.add_argument("--token", default=None,
                       help="shared-secret auth token for TCP daemons "
                            f"(default: ${TOKEN_ENV})")
        p.add_argument("--profile", action="store_true",
                       help="print per-phase wall-clock timings (trace "
                            "build / columnize / precompute / simulate / "
                            "kernel-c / cache IO) and "
                            "the active kernel after the campaign; "
                            "phases record in this process only, so "
                            "profile serial local runs for the full "
                            "picture")

    campaign_run_p = campaign_sub.add_parser(
        "run", help="execute a campaign (resumes automatically if a "
                    "journal exists)")
    _campaign_common(campaign_run_p)
    campaign_run_p.set_defaults(fn=cmd_campaign)

    campaign_resume_p = campaign_sub.add_parser(
        "resume", help="like run, but requires an existing journal")
    _campaign_common(campaign_resume_p)
    campaign_resume_p.set_defaults(fn=cmd_campaign)

    campaign_status_p = campaign_sub.add_parser(
        "status", help="show journal completion for one or all campaigns")
    campaign_status_p.add_argument("name", nargs="?", default=None,
                                   help="campaign name (default: every "
                                        "journal in the checkpoint dir)")
    campaign_status_p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help=f"journal directory (default: ${CHECKPOINT_DIR_ENV})")
    campaign_status_p.set_defaults(fn=cmd_campaign)

    campaign_list_p = campaign_sub.add_parser(
        "list", help="list registered campaigns")
    campaign_list_p.set_defaults(fn=cmd_campaign)

    def _socket_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--socket", default=None, metavar="PATH",
                       help="Unix socket of the service "
                            f"(default: ${SOCKET_ENV} or "
                            "./repro-service.sock)")

    serve_p = sub.add_parser(
        "serve",
        help="run the persistent simulation service daemon",
        description="Start a long-lived daemon that owns the result cache "
                    "and an optional completion journal, and serves "
                    "simulation jobs to any number of concurrent clients "
                    "over a Unix socket.  Jobs are deduplicated across "
                    "clients and run on a persistent -j/--jobs worker "
                    "pool; a worker killed mid-job is replaced and its "
                    "job requeued, and with --journal a restarted daemon "
                    "replays every completed job into its cache.",
    )
    _socket_arg(serve_p)
    serve_p.add_argument("--journal", default=None, metavar="PATH",
                         help="append every completed job to this JSONL "
                              "journal and replay it on restart")
    serve_p.add_argument("--queue-bound", type=int, default=None, metavar="N",
                         help="admission control: reject submits once N "
                              "jobs are outstanding, with an explicit "
                              "'overloaded' response clients retry after "
                              f"backoff (default: ${QUEUE_BOUND_ENV} or "
                              "unbounded)")
    serve_p.add_argument("--job-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="kill a worker that holds one job longer "
                              "than this and requeue the job (default: "
                              f"${JOB_TIMEOUT_ENV} or no timeout)")
    serve_p.add_argument("--chaos", action="store_true",
                         help="serve the 'chaos' introspection op and "
                              f"export the ${FAULTS_ENV} fault plan to "
                              "spawned workers (fault-matrix testing)")
    serve_p.set_defaults(fn=cmd_serve)

    cluster_p = sub.add_parser(
        "cluster",
        help="serve, inspect or drive a sharded TCP cluster",
        description="Scale the service across processes and machines: "
                    "each `cluster serve` runs one ordinary daemon on a "
                    "TCP port (a shard), and clients route every job to "
                    "its shard by consistent-hashing the job's content "
                    "key — so coalescing and cache sharing work "
                    "cluster-wide with no inter-shard coordination.  "
                    "Shards that share $REPRO_CACHE_DIR see every result "
                    "any of them published, and share one trace store "
                    "via $REPRO_TRACE_DIR.  Shards gossip membership "
                    "(seeded by --peer); a shard that dies mid-batch is "
                    "marked down and its jobs re-route along the hash "
                    "ring.",
    )
    cluster_sub = cluster_p.add_subparsers(dest="action", required=True)

    cluster_serve_p = cluster_sub.add_parser(
        "serve", help="run one cluster shard (a daemon on a TCP port)")
    cluster_serve_p.add_argument("--listen", required=True,
                                 metavar="HOST:PORT",
                                 help="TCP bind address; port 0 picks a "
                                      "free port (reported on the ready "
                                      "line)")
    cluster_serve_p.add_argument("--peer", action="append", default=None,
                                 metavar="ADDR",
                                 help="gossip seed: a sibling shard to "
                                      "heartbeat until gossip has learned "
                                      "the fleet (repeatable; "
                                      "tcp://host:port)")
    cluster_serve_p.add_argument("--token", default=None,
                                 help="require this shared-secret token "
                                      "on every request (default: "
                                      f"${TOKEN_ENV} or no auth)")
    cluster_serve_p.add_argument("--journal", default=None, metavar="PATH",
                                 help="append every completed job to this "
                                      "JSONL journal and replay it on "
                                      "restart")
    cluster_serve_p.add_argument("--queue-bound", type=int, default=None,
                                 metavar="N",
                                 help="admission control: reject submits "
                                      "once N jobs are outstanding "
                                      f"(default: ${QUEUE_BOUND_ENV} or "
                                      "unbounded)")
    cluster_serve_p.add_argument("--job-timeout", type=float, default=None,
                                 metavar="SECONDS",
                                 help="kill a worker holding one job "
                                      "longer than this and requeue it "
                                      f"(default: ${JOB_TIMEOUT_ENV} or "
                                      "no timeout)")
    cluster_serve_p.add_argument("--chaos", action="store_true",
                                 help="serve the 'chaos' op and export "
                                      f"the ${FAULTS_ENV} plan to workers")
    cluster_serve_p.add_argument("--heartbeat-interval", type=float,
                                 default=None, metavar="SECONDS",
                                 help="gossip heartbeat cadence; 0 "
                                      "disables proactive gossip "
                                      f"(default: ${HEARTBEAT_ENV} or "
                                      f"{DEFAULT_HEARTBEAT:g})")
    cluster_serve_p.set_defaults(fn=cmd_cluster)

    cluster_soak_p = cluster_sub.add_parser(
        "soak",
        help="run the self-healing soak: shard fleet + seeded chaos",
        description="Spawn a fleet of shard subprocesses sharing one "
                    "result cache directory, drive them with concurrent "
                    "router clients, and kill/stall/revive shards on a "
                    "seeded schedule.  Exits 0 only if no batch was "
                    "lost and every result matched a serial in-process "
                    "oracle bit for bit.  Prints a JSON report.")
    cluster_soak_p.add_argument("--shards", type=int, default=3,
                                help="shard subprocesses to spawn")
    cluster_soak_p.add_argument("--clients", type=int, default=8,
                                help="concurrent client threads")
    cluster_soak_p.add_argument("--batches", type=int, default=6,
                                help="batches per client")
    cluster_soak_p.add_argument("--duration", type=float, default=120.0,
                                metavar="SECONDS",
                                help="hard deadline on the whole run")
    cluster_soak_p.add_argument("--seed", type=int, default=1337,
                                help="chaos schedule seed")
    cluster_soak_p.add_argument("--heartbeat-interval", type=float,
                                default=0.25, metavar="SECONDS",
                                help="gossip cadence handed to the fleet")
    cluster_soak_p.add_argument("--journal-dir", default=None,
                                metavar="DIR",
                                help="work directory for the fleet's "
                                     "shared result cache and per-shard "
                                     "journals (default: a temporary "
                                     "directory)")
    cluster_soak_p.add_argument("--quiet", action="store_true",
                                help="suppress progress lines (the JSON "
                                     "report still prints)")
    cluster_soak_p.set_defaults(fn=cmd_cluster)

    def _cluster_client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shards", default=None, metavar="ADDR,ADDR",
                       help="comma-separated shard addresses "
                            f"(default: ${SHARDS_ENV})")
        p.add_argument("--token", default=None,
                       help="shared-secret auth token "
                            f"(default: ${TOKEN_ENV})")

    cluster_status_p = cluster_sub.add_parser(
        "status", help="aggregate every shard's metrics into one view")
    _cluster_client_args(cluster_status_p)
    cluster_status_p.set_defaults(fn=cmd_cluster)

    cluster_run_p = cluster_sub.add_parser(
        "run", help="run a predictors x workloads grid across the shards")
    _cluster_client_args(cluster_run_p)
    cluster_run_p.add_argument("--workloads", required=True,
                               help="comma-separated workloads (catalog "
                                    "or scenario-c*-e*-l* names)")
    cluster_run_p.add_argument("--predictors", default="vtage-2dstride",
                               help="comma-separated predictor "
                                    "configurations (see 'repro list')")
    cluster_run_p.add_argument("--recovery", default="squash",
                               choices=("squash", "reissue"))
    cluster_run_p.add_argument("--no-fpc", action="store_true",
                               help="use plain 3-bit confidence counters")
    cluster_run_p.add_argument("--uops", type=int, default=DEFAULT_MEASURE)
    cluster_run_p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    cluster_run_p.set_defaults(fn=cmd_cluster)

    submit_p = sub.add_parser(
        "submit",
        help="submit a job grid to a running service",
        description="Build a predictors x workloads job grid and submit "
                    "it to a `repro serve` daemon.  By default the "
                    "command waits and prints one summary line per "
                    "result; with --no-wait it prints a ticket to poll "
                    "via `repro results`.",
    )
    submit_p.add_argument("--workloads", required=True,
                          help="comma-separated workloads (catalog or "
                               "scenario-c*-e*-l* names)")
    submit_p.add_argument("--predictors", default="vtage-2dstride",
                          help="comma-separated predictor configurations "
                               "(see 'repro list')")
    submit_p.add_argument("--recovery", default="squash",
                          choices=("squash", "reissue"))
    submit_p.add_argument("--no-fpc", action="store_true",
                          help="use plain 3-bit confidence counters")
    submit_p.add_argument("--uops", type=int, default=DEFAULT_MEASURE)
    submit_p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    submit_p.add_argument("--no-wait", action="store_true",
                          help="return a ticket immediately instead of "
                               "waiting for results")
    _socket_arg(submit_p)
    submit_p.set_defaults(fn=cmd_submit)

    status_p = sub.add_parser(
        "status",
        help="show a running service's workers, queue and cache",
    )
    _socket_arg(status_p)
    status_p.set_defaults(fn=cmd_service_status)

    health_p = sub.add_parser(
        "health",
        help="probe a running service's health (exit 0/1/2)",
        description="One-shot health probe for monitoring: exit 0 when "
                    "the daemon is healthy, 1 when it is serving but "
                    "degraded (journal/cache/shm failures absorbed), 2 "
                    "when it is unreachable or has no live workers.  "
                    "Prints worker aliveness, queue depth against the "
                    "admission bound, and the degraded-mode counters.",
    )
    _socket_arg(health_p)
    health_p.add_argument("--timeout", type=float, default=5.0,
                          metavar="SECONDS",
                          help="probe deadline (default: 5s)")
    health_p.set_defaults(fn=cmd_health)

    chaos_p = sub.add_parser(
        "chaos",
        help="validate fault-injection plans or inspect a chaos daemon",
        description="Work with the deterministic fault-injection plane "
                    f"(${FAULTS_ENV}).  A plan is a seeded list of "
                    "site:action[:arg]@trigger rules; triggers are "
                    "counter-based (hit numbers, every=N, first=N, p=F), "
                    "so the same plan injects at the same points on "
                    "every run.  See DESIGN.md, 'Fault model & "
                    "degradation ladder'.",
    )
    chaos_sub = chaos_p.add_subparsers(dest="action", required=True)

    chaos_check_p = chaos_sub.add_parser(
        "check", help="parse and describe a fault spec (or @plan.json)")
    chaos_check_p.add_argument("spec",
                               help="fault spec, e.g. "
                                    "'worker.execute:crash@2;"
                                    "journal.write:torn@every=3' or "
                                    "@plan.json")
    chaos_check_p.add_argument("--seed", type=int, default=None,
                               help="plan seed for p= triggers "
                                    "(default: $REPRO_FAULTS_SEED or 0)")
    chaos_check_p.set_defaults(fn=cmd_chaos)

    chaos_show_p = chaos_sub.add_parser(
        "show", help="show the live plan of a `repro serve --chaos` daemon")
    _socket_arg(chaos_show_p)
    chaos_show_p.set_defaults(fn=cmd_chaos)

    results_p = sub.add_parser(
        "results",
        help="fetch the results of a --no-wait submission ticket",
        description="Fetch a ticket's results from a running service.  "
                    "Exits 1 (after printing progress) while jobs are "
                    "still running, 0 with one summary line per result "
                    "once the batch is complete.  Completed tickets stay "
                    "fetchable until the daemon evicts old ones.",
    )
    results_p.add_argument("ticket", type=int, help="ticket id printed by "
                           "`repro submit --no-wait`")
    _socket_arg(results_p)
    results_p.set_defaults(fn=cmd_results)

    trace_p = sub.add_parser(
        "trace",
        help="build, inspect or clear the persistent trace store",
        description="Manage the content-addressed trace store "
                    f"(--trace-dir or ${TRACE_DIR_ENV}).  Stored traces "
                    "are packed numpy columns keyed by (workload, µops, "
                    "seed) and generator version; any process pointed at "
                    "the store mmap-loads them instead of re-running the "
                    "generators, and the shared-memory trace plane fans "
                    "them out to simulation workers.",
    )
    trace_sub = trace_p.add_subparsers(dest="action", required=True)

    def _trace_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="trace store directory "
                            f"(default: ${TRACE_DIR_ENV})")

    trace_build_p = trace_sub.add_parser(
        "build", help="pre-build traces into the store")
    trace_build_p.add_argument("--workloads", required=True,
                               help="comma-separated workloads (catalog or "
                                    "scenario-c*-e*-l* names)")
    trace_build_p.add_argument("--uops", type=int, default=DEFAULT_MEASURE,
                               help="measured µops (the stored trace covers "
                                    "warmup + uops)")
    trace_build_p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    trace_build_p.add_argument("--seed", type=int, default=None,
                               help="build seed (default: the workload's "
                                    "catalog/scenario seed)")
    _trace_dir_arg(trace_build_p)
    trace_build_p.set_defaults(fn=cmd_trace)

    trace_ls_p = trace_sub.add_parser(
        "ls", help="list stored traces")
    trace_ls_p.add_argument("--stats", action="store_true",
                            help="append entry-count and byte totals, "
                                 "broken out by provenance")
    trace_ls_p.add_argument("--provenance", default=None,
                            choices=("generated", "ingested"),
                            help="list only this class of entries")
    _trace_dir_arg(trace_ls_p)
    trace_ls_p.set_defaults(fn=cmd_trace)

    trace_clear_p = trace_sub.add_parser(
        "clear", help="delete stored traces")
    trace_clear_p.add_argument(
        "--stats", action="store_true",
        help="report reclaimed on-disk bytes and the in-process trace "
             "LRU occupancy (packed columns + attached precompute "
             "planes) dropped alongside")
    trace_clear_p.add_argument(
        "--provenance", default=None, choices=("generated", "ingested"),
        help="clear only this class: 'generated' entries rebuild on "
             "demand, 'ingested' ones need their source log re-ingested "
             "(their registry names stop resolving)")
    _trace_dir_arg(trace_clear_p)
    trace_clear_p.set_defaults(fn=cmd_trace)

    ingest_p = sub.add_parser(
        "ingest",
        help="ingest real execution logs into the trace store",
        description="Parse execution logs ('address hex mnemonic' "
                    "commit-log lines, or the objdump-style variant), "
                    "classify each instruction into the µop vocabulary, "
                    "synthesise seeded value streams and store the packed "
                    "columns under an ingest-<slug>-<digest> workload "
                    "name.  The name is then accepted anywhere a workload "
                    "name is (repro run / submit / fuzz / campaigns) on "
                    "any process pointed at the same trace store.",
    )
    ingest_p.add_argument("files", nargs="+", metavar="LOG",
                          help="execution log file(s) to ingest")
    ingest_p.add_argument("--seed", type=int, default=None,
                          help="value-synthesis seed (part of the trace "
                               "identity; default: a fixed constant)")
    ingest_p.add_argument("--show-quarantined", type=int, default=5,
                          metavar="N",
                          help="print at most N quarantined lines per file")
    ingest_p.add_argument("--trace-dir", default=None, metavar="DIR",
                          help="trace store directory "
                               f"(default: ${TRACE_DIR_ENV})")
    ingest_p.set_defaults(fn=cmd_ingest)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="differential-fuzz the two cycle-loop implementations",
        description="Sample (workload × predictor × recovery × knob) "
                    "configurations from a seed and run each through the "
                    "sequential spec loop and the compiled kernel "
                    "(REPRO_FAST_SIM forced per leg), requiring "
                    "dataclass-equal results.  Interesting corners are "
                    "registered in a JSON registry with a replayable "
                    "one-line spec; exit status 1 on any divergence.",
    )
    fuzz_p.add_argument("--budget", type=int, default=25, metavar="N",
                        help="number of sampled configurations")
    fuzz_p.add_argument("--seed", type=int, default=1, metavar="S",
                        help="sampling seed (same seed, same specs)")
    fuzz_p.add_argument("--max-uops", type=int, default=3000,
                        help="upper bound on sampled trace lengths")
    fuzz_p.add_argument("--workloads", default=None,
                        help="comma-separated workload pool (default: "
                             "catalog + random scenarios + ingested traces)")
    fuzz_p.add_argument("--predictors", default=None,
                        help="comma-separated predictor pool "
                             "(default: the full registry)")
    fuzz_p.add_argument("--corners", default=None, metavar="PATH",
                        help="corner registry JSON (default: "
                             "fuzz-corners.json next to the trace store)")
    fuzz_p.add_argument("--replay", default=None, metavar="SPEC",
                        help="re-run one emitted spec line instead of "
                             "sweeping")
    fuzz_p.add_argument("--list-corners", action="store_true",
                        help="print the registered corners and exit")
    fuzz_p.set_defaults(fn=cmd_fuzz)

    cache_p = sub.add_parser(
        "cache",
        help="inspect or clear the persistent result cache",
        description="Manage the engine's result cache.  'show' prints the "
                    "cache location and entry counts; 'clear' removes every "
                    "persisted result.",
    )
    cache_p.add_argument("action", choices=("show", "clear"))
    cache_p.set_defaults(fn=cmd_cache)

    bench_p = sub.add_parser(
        "bench",
        help="manage committed benchmark baselines",
        description="The committed BENCH_*.json reports are the "
                    "regression baseline; emitters quarantine fresh "
                    "numbers in bench_out/.  'bench promote' is the only "
                    "supported path from quarantine to committed, and it "
                    "refuses without REPRO_BENCH_PROMOTE=1 and honest "
                    "provenance (rounds, load average) in the report.")
    bench_sub = bench_p.add_subparsers(dest="action", required=True)

    bench_promote_p = bench_sub.add_parser(
        "promote",
        help="copy validated bench_out/ reports over the committed ones")
    bench_promote_p.add_argument("names", nargs="*",
                                 metavar="BENCH_name.json",
                                 help="reports to promote (default: every "
                                      "BENCH_*.json in the scratch dir)")
    bench_promote_p.add_argument("--source", default=None, metavar="DIR",
                                 help="quarantine directory to read "
                                      "(default: $REPRO_BENCH_DIR or "
                                      "bench_out/)")
    bench_promote_p.add_argument("--allow-loaded", action="store_true",
                                 help="promote even if the report was "
                                      "measured on a loaded machine")
    bench_promote_p.set_defaults(fn=cmd_bench)

    list_p = sub.add_parser("list", help="list predictors and workloads")
    list_p.set_defaults(fn=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_default_engine(jobs=args.jobs, cache_dir=args.cache_dir)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
