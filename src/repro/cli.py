"""Command-line interface.

Usage examples::

    python -m repro.cli run h264ref --predictor vtage-2dstride
    python -m repro.cli -j 4 figure 4 --uops 8000 --warmup 4000
    python -m repro.cli table 1
    python -m repro.cli --cache-dir runs/ campaign run fig4
    python -m repro.cli --cache-dir runs/ campaign status
    python -m repro.cli cache show
    python -m repro.cli cache clear
    python -m repro.cli list

    # One daemon, many clients, one shared hot cache.  With no --token
    # (or $REPRO_SERVICE_TOKEN) the daemon generates one and writes it,
    # with its address, to ./repro-service.addr; clients here read it.
    python -m repro.cli -j 4 --cache-dir results/ cluster serve &
    python -m repro.cli cluster run --workloads gcc,gzip --predictors lvp,vtage
    python -m repro.cli cluster status
    python -m repro.cli campaign run fig4 --backend cluster

    # A cluster: N shards (the same daemon), jobs routed by
    # consistent-hashed content key, results shared through one cache
    # directory, one token for the fleet.
    export REPRO_CACHE_DIR=/srv/repro-results REPRO_SERVICE_TOKEN=secret
    python -m repro.cli -j 2 cluster serve --listen 127.0.0.1:7101
    python -m repro.cli -j 2 cluster serve --listen 127.0.0.1:7102
    python -m repro.cli cluster status --shards 127.0.0.1:7101,127.0.0.1:7102
    python -m repro.cli campaign run fig4 --backend cluster \
        --shards 127.0.0.1:7101,127.0.0.1:7102

All simulations go through the experiment engine: ``--jobs/-j`` (or the
``REPRO_JOBS`` environment variable) selects how many worker processes run
the job batches, and ``REPRO_CACHE_DIR`` (or ``--cache-dir``) enables the
persistent result cache that ``cache show``/``cache clear`` manage.
``campaign`` commands execute whole declarative sweeps.  Every result
lands in that cache as it finishes, so with a cache dir a killed run,
run again, resumes as a run of cache hits with a bit-identical result
set.  ``cluster serve`` turns the same engine into a
persistent TCP daemon, and one daemon is a one-shard cluster:
``cluster run``/``cluster status``/``chaos show`` and ``campaign run
--backend cluster`` talk to one daemon or many alike.  Results are
bit-identical whatever the parallelism, cache or backend.

The full reference lives in ``docs/cli.md``, regenerated from these
parsers by ``python -m repro.docs`` (CI fails on drift).
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.api import configure_default_engine, default_engine
from repro.engine.cache import CACHE_DIR_ENV
from repro.engine.campaign import (
    BACKENDS,
    engine_for_backend,
    progress_printer,
    run_campaign,
)
from repro.engine.client import (
    ADDRESS_FILE,
    SHARDS_ENV,
    TOKEN_ENV,
    ServiceClient,
    ServiceError,
)
from repro.engine.cluster import SHARD_STATES, ShardRouter
from repro.engine.executors import JOBS_ENV
from repro.engine.faults import FAULTS_ENV, FaultPlan, FaultSpecError
from repro.engine.job import SimJob
from repro.engine.queue import JOB_TIMEOUT_ENV, QUEUE_BOUND_ENV
from repro.engine.service import DEFAULT_LISTEN, run_service
from repro.pipeline.fastsim import fallback_stats, kernel_mode
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

#: Figure 1 reads traces; every other figure renders its ``fig<N>`` campaign.
_FIGURES = ("1", "3", "4", "5", "6", "7")
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
    workloads = _parse_workloads(args.workloads) or ALL_WORKLOADS
    if args.which == "1":
        print(figures.figure1(workloads, n_uops=args.uops,
                              warmup=args.warmup).text)
        return 0
    definition = CAMPAIGNS[f"fig{args.which}"]
    result = run_campaign(definition.build(workloads, args.uops, args.warmup))
    print(definition.render(result))
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

    if args.action == "status":
        cache = default_engine().cache
        if cache.directory is None:
            raise SystemExit("campaign status needs --cache-dir "
                             f"(or ${CACHE_DIR_ENV})")
        present = {path.stem for path in cache.disk_entries()}
        for name in [args.name] if args.name else list(CAMPAIGNS):
            keys = CAMPAIGNS[name].build().unique_jobs()
            done = len(present.intersection(keys))
            print(f"{name:<16} {done}/{len(keys)} "
                  f"({100.0 * done / len(keys):5.1f}%) done")
        print(f"cache: {cache.directory}")
        return 0

    # run
    definition, spec = _campaign_spec(args)
    if args.profile:
        profiling.enable()
    try:
        engine = engine_for_backend(args.backend,
                                    shards=_parse_shards(args.shards),
                                    token=args.token)
        if args.backend != "local":
            if args.jobs is not None:
                print("note: --jobs applies to the daemon(s), not this "
                      f"client; it is ignored with --backend {args.backend}",
                      file=sys.stderr)
        result = run_campaign(spec, engine=engine,
                              progress=progress_printer(spec.name))
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    stats = result.stats
    print(file=sys.stderr)
    print(f"campaign {spec.name}: {stats['total']} unique jobs — "
          f"{stats['executed']} executed, "
          f"{stats['cache_hits']} answered by the result cache")
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
        if not rows:
            print(f"no stored traces under {store.directory}")
            return 0
        for row in sorted(rows, key=lambda r: (r.get("name", ""),
                                               r.get("n_uops", 0))):
            print(f"{row.get('name', '?'):<24} {row.get('n_uops', 0):>8} µops"
                  f"  seed {row.get('seed', '?'):<6}"
                  f" {int(row.get('nbytes', 0)) / 1024:>9.0f} KB"
                  f"  {row['key'][:12]}…")
        if args.stats:
            stats = store.stats()
            print(f"total: {stats['entries']} trace(s), "
                  f"{stats['bytes'] / (1024 * 1024):.1f} MB under "
                  f"{stats['directory']}")
        return 0
    # clear
    disk = store.stats() if args.stats else None
    removed = store.clear()
    print(f"removed {removed} stored trace(s) from {store.directory}")
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


def _router(args: argparse.Namespace) -> ShardRouter:
    """The router over ``--shards``/``--token`` (or their fallbacks)."""
    try:
        return ShardRouter(_parse_shards(args.shards), token=args.token)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None


def _print_fault_plan(plan: dict, indent: str = "") -> None:
    print(f"{indent}seed: {plan['seed']}")
    print(f"{indent}rules:")
    for rule in plan["rules"]:
        print(f"{indent}  {rule}")
    if plan["hits"]:
        print(f"{indent}site traffic (hits/fired):")
        for site in sorted(plan["hits"]):
            print(f"{indent}  {site}: {plan['hits'][site]}"
                  f"/{plan['fired'].get(site, 0)}")


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.action == "check":
        try:
            plan = FaultPlan.parse(args.spec, seed=args.seed)
        except FaultSpecError as exc:
            raise SystemExit(f"bad fault spec: {exc}") from None
        print(f"valid plan ({len(plan.rules)} rule(s)); run it with:")
        print(f"  {FAULTS_ENV}='{plan.to_spec()}' "
              f"REPRO_FAULTS_SEED={plan.seed} repro cluster serve --chaos")
        _print_fault_plan(plan.describe())
        return 0
    # show: every shard's live plan and counters (--chaos daemons only)
    router = _router(args)
    failed = False
    for shard in router.ring.shards:
        print(f"shard {shard}:")
        try:
            with ServiceClient(shard, token=router.token) as client:
                plan = client.chaos()
        except ServiceError as exc:
            print(f"  error: {exc}")
            failed = True
            continue
        if plan is None:
            print("  no fault plan is active "
                  f"(set ${FAULTS_ENV} before starting the daemon)")
        else:
            _print_fault_plan(plan, indent="  ")
    return 1 if failed else 0


def cmd_cluster(args: argparse.Namespace) -> int:
    if args.action == "serve":
        # main() already resolved --jobs/--cache-dir into the default
        # engine; the daemon serves from that engine's cache.
        return run_service(
            listen=args.listen,
            workers=args.jobs,
            cache=default_engine().cache,
            max_depth=args.queue_bound,
            job_timeout=args.job_timeout,
            chaos=args.chaos,
            token=args.token,
        )
    if args.action == "soak":
        return _cmd_cluster_soak(args)
    router = _router(args)
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
            f"shard(s): {stats['cache_hits']} answered by a shard cache, "
            f"{stats['coalesced']} coalesced with in-flight work, "
            f"{stats['enqueued']} newly enqueued")
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
                        seed=args.seed, deadline_s=args.duration)
    log = (lambda line: print(line, file=sys.stderr, flush=True)) \
        if not args.quiet else None
    if args.work_dir:
        report = run_soak(config, args.work_dir, log=log)
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
    """Render :meth:`ShardRouter.status`; exit with the worst shard's
    verdict: 0 ok, 1 degraded, 2 down."""
    ring = status["ring"]
    print(f"cluster: {ring['alive']}/{ring['shards']} shard(s) alive "
          f"({ring['replicas']} ring points per shard)")
    for row in status["shards"]:
        address = row["address"]
        if row["down"]:
            note = f"shard {address}: DOWN — {row.get('reason', 'marked down')}"
            if "next_probe_in_s" in row:
                note += (f" (probation: {row.get('probe_failures', 0)} "
                         f"failed probe(s), next in "
                         f"{row['next_probe_in_s']:g}s)")
            print(note)
            continue
        if "metrics" not in row:
            print(f"shard {address}: DOWN — unreachable: "
                  f"{row.get('unreachable', 'no metrics')}")
            continue
        metrics = row["metrics"]
        shard, queue = metrics["shard"], metrics["queue"]
        cache, stats = metrics["cache"], queue["stats"]
        print(f"shard {address}: {row['state']} — pid {shard['pid']}, "
              f"{shard['workers']} worker(s), up {shard['uptime_s']:.0f}s")
        for worker in queue["workers"]:
            state = worker["task"] or ("idle" if worker["alive"] else "dead")
            print(f"  worker #{worker['id']} pid {worker['pid']}: {state}")
        bound = queue["max_depth"]
        timeout = queue["job_timeout"]
        print(f"  queue: {queue['depth']} deep"
              f"{f' of {bound}' if bound else ''} "
              f"({queue['pending']} pending, {queue['in_flight']} in "
              f"flight), {queue['workers_alive']} worker(s) alive, "
              f"{queue['restarts']} restart(s), job timeout "
              f"{f'{timeout:g}s' if timeout else 'off'}")
        print(f"  lifetime: {stats['submitted']} submitted = "
              f"{stats['cache_hits']} cache hits + "
              f"{stats['coalesced']} coalesced + "
              f"{stats['executed']} executed; "
              f"{stats['requeued']} requeued, {stats['errors']} error(s), "
              f"{stats['timeouts']} job timeout(s), "
              f"{stats['rejected']} batch(es) shed as overloaded")
        print(f"  cache: {cache['hits']} hit(s) / {cache['misses']} miss(es), "
              f"{cache['stores']} stored, "
              f"{cache['memory_entries']} in memory "
              f"({cache['directory'] or 'memory-only'})")
        if cache["write_failures"]:
            print(f"  DEGRADED: {cache['write_failures']} result-cache "
                  "write failure(s) absorbed (results kept in memory)")
        if metrics["faults"]["active"]:
            print(f"  faults: plan active, "
                  f"{metrics['faults']['fired']} rule(s) fired "
                  "(inspect with `repro chaos show`)")
    return max(SHARD_STATES.index(row["state"]) for row in status["shards"])


def cmd_cache(args: argparse.Namespace) -> int:
    cache = default_engine().cache
    if args.action == "show":
        stats = cache.stats()
        if stats["directory"] is None:
            print(f"persistent cache: disabled (set ${CACHE_DIR_ENV} or pass "
                  "--cache-dir to enable)")
        else:
            print(f"persistent cache: {stats['directory']}")
            print(f"  entries: {len(cache.disk_entries())}")
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
                            "build / precompute / simulate / kernel-c / "
                            "cache IO) and "
                            "the active kernel after the run")
    run_p.set_defaults(fn=cmd_run)

    table_p = sub.add_parser("table", help="render a paper table")
    table_p.add_argument("which", choices=sorted(_TABLES))
    table_p.set_defaults(fn=cmd_table)

    figure_p = sub.add_parser("figure", help="reproduce a paper figure")
    figure_p.add_argument("which", choices=_FIGURES)
    figure_p.add_argument("--workloads", default=None,
                          help="comma-separated subset (default: all 19)")
    figure_p.add_argument("--uops", type=int, default=DEFAULT_MEASURE)
    figure_p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    figure_p.set_defaults(fn=cmd_figure)

    campaign_p = sub.add_parser(
        "campaign",
        help="run or inspect declarative sweep campaigns",
        description="Execute whole sweeps (figure grids, the full "
                    "reproduction, scenario explorations) as declarative "
                    "campaigns.  With a disk result cache (--cache-dir or "
                    f"${CACHE_DIR_ENV}) every simulation is persisted as "
                    "it finishes, and a killed run, run again, resumes "
                    "bit-identically as a run of cache hits.",
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
        p.add_argument("--render", action="store_true",
                       help="print the campaign's figure/table after the run")
        p.add_argument("--backend", default="local", choices=BACKENDS,
                       help="where job batches execute: in this process "
                            "('local') or on `repro cluster serve` "
                            "daemons ('cluster'; one daemon is a "
                            "one-shard cluster)")
        p.add_argument("--shards", default=None, metavar="ADDR,ADDR",
                       help="comma-separated daemon addresses for "
                            f"--backend cluster (default: ${SHARDS_ENV}, "
                            f"else ./{ADDRESS_FILE})")
        p.add_argument("--token", default=None,
                       help="shared-secret auth token (default: "
                            f"${TOKEN_ENV}, else ./{ADDRESS_FILE})")
        p.add_argument("--profile", action="store_true",
                       help="print per-phase wall-clock timings (trace "
                            "build / precompute / simulate / kernel-c / "
                            "cache IO) and "
                            "the active kernel after the campaign; "
                            "phases record in this process only, so "
                            "profile serial local runs for the full "
                            "picture")

    campaign_run_p = campaign_sub.add_parser(
        "run", help="execute a campaign (jobs already in the result cache "
                    "are cache hits, so a rerun resumes)")
    _campaign_common(campaign_run_p)
    campaign_run_p.set_defaults(fn=cmd_campaign)

    campaign_status_p = campaign_sub.add_parser(
        "status", help="show cache completion for one or all campaigns",
        description="Count how many of each registered campaign's jobs "
                    "have a result in the disk result cache (--cache-dir "
                    f"or ${CACHE_DIR_ENV}).  Campaigns are "
                    "expanded at their registered grids, so a run made "
                    "with --workloads, --uops or --warmup reports its "
                    "progress only in its own summary line.")
    campaign_status_p.add_argument("name", nargs="?", default=None,
                                   choices=sorted(CAMPAIGNS),
                                   help="campaign name (default: every "
                                        "registered campaign)")
    campaign_status_p.set_defaults(fn=cmd_campaign)

    campaign_list_p = campaign_sub.add_parser(
        "list", help="list registered campaigns")
    campaign_list_p.set_defaults(fn=cmd_campaign)

    cluster_p = sub.add_parser(
        "cluster",
        help="serve, inspect or drive the daemons (one, or a sharded "
             "cluster)",
        description="Scale the service across processes and machines: "
                    "each `cluster serve` runs one daemon on a TCP port "
                    "(a shard; one daemon alone is a one-shard cluster), "
                    "and clients route every job to "
                    "its shard by consistent-hashing the job's content "
                    "key — so coalescing and cache sharing work "
                    "cluster-wide with no inter-shard coordination.  "
                    "Shards that share $REPRO_CACHE_DIR see every result "
                    "any of them published, and share one trace store "
                    "via $REPRO_TRACE_DIR.  A shard that dies mid-batch "
                    "is marked down and its jobs re-route along the hash "
                    "ring; the router probes it on a backoff schedule "
                    "and re-admits it once it answers.",
    )
    cluster_sub = cluster_p.add_subparsers(dest="action", required=True)

    cluster_serve_p = cluster_sub.add_parser(
        "serve", help="run the simulation daemon (one shard) on a TCP port",
        description="Start a long-lived daemon that owns the result cache "
                    "and serves simulation jobs to any number of "
                    "concurrent clients.  Jobs are deduplicated across "
                    "clients and run on a persistent -j/--jobs worker "
                    "pool; a worker killed mid-job is replaced and its "
                    "job requeued.  With a disk cache (--cache-dir or "
                    "$REPRO_CACHE_DIR) a restarted daemon answers every "
                    "job it ever completed.  Every request must carry the "
                    "token; a daemon given none generates one and writes "
                    f"it with its address to ./{ADDRESS_FILE} (mode "
                    "0600, removed on a clean stop), where clients find "
                    "both.")
    cluster_serve_p.add_argument("--listen", default=DEFAULT_LISTEN,
                                 metavar="HOST:PORT",
                                 help="TCP bind address; port 0 picks a "
                                      "free port, reported on the ready "
                                      "line")
    cluster_serve_p.add_argument("--token", default=None,
                                 help="require this shared-secret token "
                                      "on every request (default: "
                                      f"${TOKEN_ENV}, else a generated "
                                      f"one written to ./{ADDRESS_FILE})")
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
    cluster_soak_p.add_argument("--work-dir", default=None,
                                metavar="DIR",
                                help="work directory for the fleet's "
                                     "shared result cache and trace "
                                     "store (default: a temporary "
                                     "directory)")
    cluster_soak_p.add_argument("--quiet", action="store_true",
                                help="suppress progress lines (the JSON "
                                     "report still prints)")
    cluster_soak_p.set_defaults(fn=cmd_cluster)

    def _cluster_client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shards", default=None, metavar="ADDR,ADDR",
                       help="comma-separated shard addresses "
                            f"(default: ${SHARDS_ENV}, else "
                            f"./{ADDRESS_FILE})")
        p.add_argument("--token", default=None,
                       help="shared-secret auth token "
                            f"(default: ${TOKEN_ENV}, else "
                            f"./{ADDRESS_FILE})")

    cluster_status_p = cluster_sub.add_parser(
        "status", help="aggregate every shard's metrics into one view "
                       "(exit 0/1/2)",
        description="Scrape every shard's metrics and print one view: "
                    "per-worker rows, queue depth against the admission "
                    "bound, lifetime counters, cache counters and "
                    "degraded-mode flags.  Each shard gets a verdict — ok, "
                    "degraded (result-cache write failures absorbed) or "
                    "down (on probation, unreachable, or no live worker) "
                    "— and the command exits with the worst: 0 ok, 1 "
                    "degraded, 2 down.")
    _cluster_client_args(cluster_status_p)
    cluster_status_p.set_defaults(fn=cmd_cluster)

    cluster_run_p = cluster_sub.add_parser(
        "run", help="run a predictors x workloads grid across the shards",
        description="Build a predictors x workloads job grid, route it "
                    "across the shards by content key and print one "
                    "summary line per result.  A closing note on stderr "
                    "says how the shards satisfied the grid: cache hits, "
                    "jobs coalesced with in-flight work, new simulations.")
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
                                    "cache.write:torn@every=3' or "
                                    "@plan.json")
    chaos_check_p.add_argument("--seed", type=int, default=None,
                               help="plan seed for p= triggers "
                                    "(default: $REPRO_FAULTS_SEED or 0)")
    chaos_check_p.set_defaults(fn=cmd_chaos)

    chaos_show_p = chaos_sub.add_parser(
        "show", help="show each shard's live plan (`cluster serve --chaos` "
                     "daemons)")
    _cluster_client_args(chaos_show_p)
    chaos_show_p.set_defaults(fn=cmd_chaos)

    trace_p = sub.add_parser(
        "trace",
        help="build, inspect or clear the persistent trace store",
        description="Manage the content-addressed trace store "
                    f"(--trace-dir or ${TRACE_DIR_ENV}).  Stored traces "
                    "are packed numpy columns keyed by (workload, µops, "
                    "seed) and generator version; any process pointed at "
                    "the store mmap-loads them instead of re-running the "
                    "generators.  Pool and daemon workers share it "
                    "(or a private temporary store when none is set).",
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
                            help="append entry-count and byte totals")
    _trace_dir_arg(trace_ls_p)
    trace_ls_p.set_defaults(fn=cmd_trace)

    trace_clear_p = trace_sub.add_parser(
        "clear", help="delete stored traces")
    trace_clear_p.add_argument(
        "--stats", action="store_true",
        help="report reclaimed on-disk bytes and the in-process trace "
             "LRU occupancy (packed columns + attached precompute "
             "planes) dropped alongside")
    _trace_dir_arg(trace_clear_p)
    trace_clear_p.set_defaults(fn=cmd_trace)

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
                             "catalog + random scenarios)")
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
