"""Long-running cluster soak: many clients, seeded chaos, zero loss.

The acceptance harness behind ``repro cluster soak``: spawn a fleet of
real shard subprocesses sharing one result cache directory
(``$REPRO_CACHE_DIR``, the fleet's only cross-shard result path), each
with its own completion journal, hammer them with
N concurrent router clients, and — while they work — run a **seeded**
chaos schedule that SIGKILLs shards, stalls them (SIGSTOP/SIGCONT) and
revives the corpses on their original ports.  At the end the harness
asserts the self-healing story end to end:

* **zero lost jobs** — every batch every client submitted eventually
  completed (routers fail over, probe and re-admit on their own);
* **bit-identical results** — every result matches a serial in-process
  oracle computed up front, so failover never smuggles in a wrong or
  stale answer;
* **bounded re-simulation** — summing journal records across the
  shards' journals counts every execution that ever happened
  (fsync-per-record survives SIGKILL), so ``records - distinct keys`` is
  the work done twice.  A shard publishes a result to the shared cache
  before any client sees it, so only work a kill or a stall strands
  unpublished can run twice, and each client has at most one batch in
  flight: :attr:`SoakReport.resimulation_bound` is
  ``(kills + stalls) × clients × batch_jobs``;
* **self-healing observed** — routers report probes and re-admissions,
  shards report gossip traffic.

Everything is deterministic from :attr:`SoakConfig.seed` on the chaos
side; wall-clock interleaving of clients is inherently racy, which is
the point — the *invariants* must hold under any interleaving.

The default config is a smoke-sized run (seconds); CI runs it via
``repro cluster soak --duration 30``; the nightly-sized knobs are all
flags on the same verb.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.checkpoint import read_journal_snapshot
from repro.engine.client import ServiceError, ServiceUnavailable
from repro.engine.cluster import ShardRouter
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob

#: Workload pool the soak grid draws from (all catalog members, so the
#: oracle never needs trace files).
SOAK_WORKLOADS = ("gzip", "wupwise", "applu", "vpr", "art", "crafty",
                  "parser", "vortex", "bzip2", "gcc", "gamess", "mcf")

#: Predictor pool: cheap configs so one job is milliseconds, letting a
#: short soak push hundreds of batches through the fleet.
SOAK_PREDICTORS = ("none", "lvp", "2dstride", "vtage")


@dataclass
class SoakConfig:
    """One soak run's shape: fleet size, client pressure, chaos cadence."""

    #: Shard subprocesses to spawn (and keep reviving).
    shards: int = 3
    #: Concurrent client threads, each owning a private ShardRouter.
    clients: int = 8
    #: Batches each client pushes through the cluster.
    batches_per_client: int = 6
    #: Jobs per batch (sampled, with replacement, from the job universe).
    batch_jobs: int = 8
    #: Chaos schedule seed — same seed, same kill/stall/revive sequence.
    seed: int = 1337
    #: Seconds between chaos events (kill / stall / revive decisions).
    chaos_interval_s: float = 1.0
    #: Ceiling on the run; the harness fails rather than hang past it.
    deadline_s: float = 120.0
    #: Gossip heartbeat interval handed to every shard.
    heartbeat_interval_s: float = 0.25
    #: How long a SIGSTOP stall lasts before SIGCONT.
    stall_s: float = 1.0
    #: Client-side request timeout (short: stalled shards must be
    #: detected in seconds, not the 300 s interactive default).
    client_timeout_s: float = 10.0
    #: Router probe knobs: fast backoff so re-admission happens within
    #: a short soak window.
    probe_base_s: float = 0.2
    probe_cap_s: float = 2.0
    #: Job size (small on purpose; the soak tests plumbing, not IPC).
    n_uops: int = 2000
    warmup: int = 1000
    #: Shared-secret token for the fleet (auth stays on under chaos).
    token: str = "soak-secret"
    #: Workload / predictor pools for the job universe.
    workloads: tuple = SOAK_WORKLOADS
    predictors: tuple = SOAK_PREDICTORS


@dataclass
class SoakReport:
    """What a soak run observed; :meth:`passed` is the acceptance bar."""

    batches_completed: int = 0
    batches_lost: int = 0
    jobs_completed: int = 0
    unique_jobs: int = 0
    mismatched_keys: list = field(default_factory=list)
    journal_records: int = 0
    journal_corrupt: int = 0
    resimulated: int = 0
    resimulation_bound: int = 0
    kills: int = 0
    stalls: int = 0
    revives: int = 0
    probes: int = 0
    readmissions: int = 0
    failovers: int = 0
    gossip_merges: int = 0
    wall_s: float = 0.0

    def passed(self) -> bool:
        """Zero lost batches, zero wrong bits, re-simulation in bound."""
        return self.batches_lost == 0 and not self.mismatched_keys and \
            self.resimulated <= self.resimulation_bound

    def to_dict(self) -> dict:
        return {
            "passed": self.passed(),
            "batches_completed": self.batches_completed,
            "batches_lost": self.batches_lost,
            "jobs_completed": self.jobs_completed,
            "unique_jobs": self.unique_jobs,
            "mismatched_keys": list(self.mismatched_keys),
            "journal_records": self.journal_records,
            "journal_corrupt": self.journal_corrupt,
            "resimulated": self.resimulated,
            "resimulation_bound": self.resimulation_bound,
            "kills": self.kills,
            "stalls": self.stalls,
            "revives": self.revives,
            "probes": self.probes,
            "readmissions": self.readmissions,
            "failovers": self.failovers,
            "gossip_merges": self.gossip_merges,
            "wall_s": round(self.wall_s, 3),
        }


class _Shard:
    """One shard subprocess the chaos loop owns: spawn, kill, revive."""

    def __init__(self, index: int):
        self.index = index         # names the journal revivals reopen
        self.port = 0              # 0 until the kernel picks one
        self.address: str | None = None
        self.proc: subprocess.Popen | None = None
        self.stopped = False       # SIGSTOPped right now

    @property
    def alive(self) -> bool:
        return (self.proc is not None and self.proc.poll() is None
                and not self.stopped)


def _repo_src() -> str:
    return str(Path(__file__).resolve().parents[2])


def _spawn_shard(shard: _Shard, config: SoakConfig, work_dir: Path) -> None:
    """Start (or restart) *shard* as a ``repro cluster serve`` process.

    Every shard publishes results to ``<work_dir>/cache`` and journals
    to ``<work_dir>/shard-<index>.journal``.  First spawn binds port 0
    and learns the kernel's pick from the ready line; revivals re-bind
    the *same* port and reopen the same journal, so the fleet's
    addresses, ring and epochs are stable across deaths.
    ``REPRO_SHM=0`` because a SIGKILL-ed daemon cannot unlink
    shared-memory segments.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_repo_src(), env.get("PYTHONPATH", "")) if p)
    env["REPRO_SERVICE_TOKEN"] = config.token
    env["REPRO_SHM"] = "0"
    env["REPRO_CACHE_DIR"] = str(work_dir / "cache")
    env.pop("REPRO_FAULTS", None)  # chaos here is real signals, not faults
    # stdout=DEVNULL matters beyond tidiness: a SIGKILL-ed shard's pool
    # workers outlive it, and if they inherited *this* process's stdout
    # they hold the pipe open — a CI log collector (or `soak | tee`)
    # would then wait on EOF forever after the harness itself exited.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "-j", "1", "cluster", "serve",
         "--listen", f"127.0.0.1:{shard.port}",
         "--journal", str(work_dir / f"shard-{shard.index}.journal"),
         "--heartbeat-interval", str(config.heartbeat_interval_s)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stderr.readline()
        match = re.search(r"listen=(tcp://\S+)", line)
        if not match:
            raise ServiceError(f"shard printed no ready line: {line!r}")
        shard.address = match.group(1)
        shard.port = int(shard.address.rsplit(":", 1)[1])
        shard.proc = proc
        shard.stopped = False
        # The pipe must keep draining or a chatty shard blocks on it.
        threading.Thread(target=_drain, args=(proc.stderr,),
                         daemon=True).start()
    except Exception:
        proc.kill()
        raise


def _drain(pipe) -> None:
    try:
        for _ in pipe:
            pass
    except (OSError, ValueError):
        pass


def _job_universe(config: SoakConfig) -> list[SimJob]:
    return [
        SimJob.make(workload, predictor, n_uops=config.n_uops,
                    warmup=config.warmup)
        for predictor in config.predictors
        for workload in config.workloads
    ]


def _client_worker(index: int, config: SoakConfig, addresses: list[str],
                   universe: list[SimJob], oracle: dict,
                   report: SoakReport, lock: threading.Lock,
                   deadline: float) -> None:
    """One soak client: submit batches, retry through outages, verify.

    Owns a private :class:`ShardRouter` (its own probation state and
    membership view — the self-healing path is per-client, there is no
    shared coordinator to cheat through).  A batch is *lost* only if it
    still cannot complete by the harness deadline with every retry and
    forced probe exhausted — the zero-loss invariant the soak exists to
    prove.
    """
    rng = random.Random((config.seed << 16) ^ index)
    router = ShardRouter(addresses, token=config.token,
                         timeout=config.client_timeout_s,
                         probe_base=config.probe_base_s,
                         probe_cap=config.probe_cap_s)
    try:
        for batch_index in range(config.batches_per_client):
            batch = [universe[rng.randrange(len(universe))]
                     for _ in range(config.batch_jobs)]
            done = False
            while time.monotonic() < deadline:
                try:
                    results = router.run_jobs(batch)
                except ServiceUnavailable:
                    time.sleep(min(1.0, config.probe_base_s * 4))
                    continue
                with lock:
                    report.batches_completed += 1
                    report.jobs_completed += len(results)
                    for job, result in zip(batch, results):
                        key = job.content_key()
                        if result != oracle[key] and \
                                key not in report.mismatched_keys:
                            report.mismatched_keys.append(key)
                done = True
                break
            if not done:
                with lock:
                    report.batches_lost += 1
            # Pull the gossiped view occasionally: exercises the router
            # subscription path (and accelerates probe timers).
            if batch_index % 2 == 1:
                try:
                    router.refresh_membership()
                except Exception:  # noqa: BLE001 - fail-open by design
                    pass
        with lock:
            report.probes += router.stats["probes"]
            report.readmissions += router.stats["readmissions"]
            report.failovers += router.stats["failovers"]
            report.gossip_merges += router.stats["gossip_merges"]
    finally:
        router.close()


def _chaos_step(rng: random.Random, fleet: list[_Shard],
                config: SoakConfig, work_dir: Path,
                report: SoakReport, log) -> None:
    """One seeded chaos event: revive a corpse, or hurt a live shard.

    Never touches the last healthy shard — the soak proves healing, and
    a fleet with zero capacity heals nothing (routers would just block
    on their retry loops until the deadline).
    """
    dead = [s for s in fleet if s.proc is not None and
            s.proc.poll() is not None]
    # Revive first: corpses must come back or later kills would drain
    # the fleet to its floor and the schedule degenerates.
    if dead and rng.random() < 0.6:
        shard = rng.choice(dead)
        _spawn_shard(shard, config, work_dir)
        report.revives += 1
        log(f"soak: revived {shard.address}")
        return
    healthy = [s for s in fleet if s.alive]
    stopped = [s for s in fleet if s.stopped and s.proc is not None
               and s.proc.poll() is None]
    if stopped:  # always resume stalls before considering new damage
        for shard in stopped:
            shard.proc.send_signal(signal.SIGCONT)
            shard.stopped = False
            log(f"soak: resumed {shard.address}")
        return
    if len(healthy) <= 1:
        return
    shard = rng.choice(healthy)
    if rng.random() < 0.5:
        shard.proc.send_signal(signal.SIGKILL)
        shard.proc.wait()
        report.kills += 1
        log(f"soak: SIGKILLed {shard.address}")
    else:
        shard.proc.send_signal(signal.SIGSTOP)
        shard.stopped = True
        report.stalls += 1
        log(f"soak: stalled {shard.address} for {config.stall_s:g}s")


def run_soak(config: SoakConfig, work_dir: str | os.PathLike,
             log=None) -> SoakReport:
    """Run one full soak; returns the report (check :meth:`~SoakReport.passed`).

    *work_dir* holds the fleet's shared result cache and its shards'
    journals; the caller owns its lifetime (a tmpdir in tests, a scratch
    dir under the CLI).  *log* is called with progress lines (``None``
    silences them).
    """
    log = log or (lambda line: None)
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    universe = _job_universe(config)
    log(f"soak: oracle — {len(universe)} unique jobs, serial in-process")
    oracle_engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
    oracle = {job.content_key(): result
              for job, result in zip(universe,
                                     oracle_engine.run_jobs(universe))}
    report = SoakReport(unique_jobs=len(universe))
    started = time.monotonic()
    deadline = started + config.deadline_s
    fleet = [_Shard(index) for index in range(config.shards)]
    for shard in fleet:
        _spawn_shard(shard, config, work_dir)
    addresses = [shard.address for shard in fleet]
    log(f"soak: fleet up — {', '.join(addresses)}")
    lock = threading.Lock()
    clients = [
        threading.Thread(
            target=_client_worker,
            args=(index, config, addresses, universe, oracle, report,
                  lock, deadline),
            daemon=True)
        for index in range(config.clients)
    ]
    rng = random.Random(config.seed)
    try:
        for thread in clients:
            thread.start()
        next_chaos = started + config.chaos_interval_s
        stall_until = 0.0
        while any(thread.is_alive() for thread in clients):
            if time.monotonic() >= deadline:
                break
            now = time.monotonic()
            if now >= next_chaos and now >= stall_until:
                _chaos_step(rng, fleet, config, work_dir, report, log)
                next_chaos = now + config.chaos_interval_s
                if any(s.stopped for s in fleet):
                    stall_until = now + config.stall_s
            time.sleep(0.05)
        for thread in clients:
            thread.join(timeout=max(0.0, deadline - time.monotonic()) + 5.0)
    finally:
        for shard in fleet:  # let SIGSTOPped shards die
            if shard.proc is not None and shard.stopped:
                try:
                    shard.proc.send_signal(signal.SIGCONT)
                except OSError:
                    pass
        for shard in fleet:
            if shard.proc is not None and shard.proc.poll() is None:
                shard.proc.terminate()
        for shard in fleet:
            if shard.proc is not None:
                try:
                    shard.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    shard.proc.kill()
                    shard.proc.wait()
    report.wall_s = time.monotonic() - started
    # Re-simulation accounting: every executed job appended one fsync'd
    # journal record (SIGKILL cannot un-write them), so records beyond
    # the count of *distinct* journaled keys are the executions done
    # twice because a kill or stall stranded them unpublished.
    executed_keys: set[str] = set()
    for path in sorted(work_dir.glob("*.journal")):
        snapshot = read_journal_snapshot(path)
        report.journal_records += snapshot["records"]
        report.journal_corrupt += snapshot["corrupt"]
        executed_keys.update(snapshot["entries"])
    report.resimulated = max(
        0, report.journal_records - len(executed_keys))
    report.resimulation_bound = ((report.kills + report.stalls)
                                 * config.clients * config.batch_jobs)
    log(f"soak: done in {report.wall_s:.1f}s — "
        f"{report.batches_completed} batches, "
        f"{report.batches_lost} lost, "
        f"{len(report.mismatched_keys)} mismatched, "
        f"{report.kills} kills / {report.stalls} stalls / "
        f"{report.revives} revives, "
        f"{report.resimulated} job(s) re-simulated "
        f"(bound {report.resimulation_bound}), "
        f"{report.readmissions} re-admission(s)")
    return report
