"""Shard the simulation service: consistent hashing, routing, failover.

One :class:`~repro.engine.service.SimService` daemon — a one-shard
cluster — scales to one machine's cores.  The cluster plane scales past
that with the dumbest topology that preserves the engine's invariants:
N independent daemons ("shards"), each listening on TCP (``repro
cluster serve``), and a client-side :class:`ShardRouter` that
deterministically maps every job to a shard by consistent-hashing its
**content key** — the same digest that already names the job in the
result cache and the coalescing table.  Routing by content key means:

* every client, on every machine, sends a given spec to the *same*
  shard, so cross-client coalescing and cache sharing keep working
  cluster-wide without any shard-to-shard coordination protocol;
* a shard's memory cache naturally holds exactly its key range, and
  shards sharing one ``$REPRO_CACHE_DIR`` read every result any of them
  published — the fleet's one result plane, with no shard-to-shard
  result protocol (:mod:`repro.engine.cache`);
* results are bit-identical to a local run by construction: a shard
  runs the very same ``execute_job`` on the very same spec.

The :class:`HashRing` uses virtual nodes (many hash points per shard)
so keys spread evenly, and has the property the failover path leans on:
a ring without one shard maps only *that shard's* keys elsewhere —
everyone else's cache locality survives the shard's loss.  The ring is
fixed at construction; a dead shard leaves routing through the
router's probation table, not by changing the ring.

Failure handling: the router drives each shard through the ordinary
:class:`~repro.engine.client.ServiceClient` retry machinery, and when a
shard stays unreachable past its retry budget the router marks it down,
re-routes the stranded jobs along the ring's preference order, and keeps
going — a SIGKILL-ed shard costs its in-flight work one resubmission
(idempotent by content key) and loses nothing.  An all-shards-down
cluster raises :class:`~repro.engine.client.ServiceUnavailable`.

Down-marking is **probation, not a death sentence**: each downed shard
gets a half-open probe on an exponential-backoff schedule (hysteresis —
a flapping shard earns a longer sentence each relapse), and a probe
that answers ``ping`` re-admits the shard to routing — so a revived
shard takes traffic again without anyone restarting anything.  Probation
is the cluster's only liveness mechanism: shards never talk to each
other, and each router learns a shard is alive by probing it itself.

:class:`ClusterExecutor` / :func:`cluster_engine` wrap the router in the
standard executor/engine shape, which is what ``--backend cluster``
campaigns use; ``repro cluster run`` drives a router directly, and
``repro cluster status`` renders :meth:`ShardRouter.status` — the
per-shard ``metrics`` op aggregated into one ops view.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine import faults
from repro.engine.client import (
    SHARDS_ENV,
    RetryPolicy,
    ServiceClient,
    ServiceTimeout,
    ServiceUnavailable,
    resolve_service,
)
from repro.engine.executors import OnResult
from repro.engine.job import SimJob
from repro.pipeline.result import SimResult

#: Virtual nodes per shard.  Enough that a handful of shards spread keys
#: within a few percent of even; cheap enough that building a ring is
#: trivial (the ring is ``replicas × shards`` 8-byte points).
DEFAULT_REPLICAS = 64

#: First half-open probe fires this many seconds after a shard drops.
PROBE_BASE = 0.5

#: Probe backoff ceiling — even a chronic flapper is re-tried this often.
PROBE_CAP = 30.0

#: Deadline for one half-open ``ping`` probe.  Short: a probe exists to
#: answer "is it back?" cheaply, not to wait out a wedged shard.
PROBE_TIMEOUT = 2.0


def probe_backoff(failures: int, *, base: float = PROBE_BASE,
                  cap: float = PROBE_CAP) -> float:
    """Seconds until the next half-open probe of a downed shard.

    Doubles per consecutive failed probe (and per prior flap — the
    hysteresis that quarantines an up/down/up shard progressively
    longer), capped so nothing is ever quarantined forever.  Monotone
    non-decreasing in *failures*; pinned by the cluster property suite.
    """
    return min(cap, base * (2 ** max(0, int(failures))))


class HashRing:
    """Consistent-hash ring mapping content keys to shard addresses.

    Each shard contributes :attr:`replicas` virtual nodes — points on a
    64-bit circle at ``sha256(address#i)`` — and a key belongs to the
    first point at or after ``sha256(key)``.  The two properties the
    cluster relies on, both exercised by the property suite:

    * **balance** — with enough virtual nodes, each of N shards owns
      ~1/N of a large key population;
    * **minimal remapping** — a ring with one extra (or one fewer)
      shard differs only in keys owned by that shard; no key moves
      *between* two shards both rings share.

    The ring is immutable once built.
    """

    def __init__(self, shards: list[str],
                 replicas: int = DEFAULT_REPLICAS):
        self.replicas = max(1, int(replicas))
        # De-dup while preserving insertion order for display.
        self.shards: list[str] = list(dict.fromkeys(shards))
        pairs = sorted(
            (self._hash(f"{shard}#{replica}"), shard)
            for shard in self.shards
            for replica in range(self.replicas)
        )
        self._points: list[int] = [point for point, _ in pairs]
        self._owners: list[str] = [shard for _, shard in pairs]

    @staticmethod
    def _hash(label: str) -> int:
        return int.from_bytes(
            hashlib.sha256(label.encode()).digest()[:8], "big")

    def __len__(self) -> int:
        return len(self.shards)

    def shard_for(self, key: str) -> str:
        """The shard owning *key* (first ring point at/after its hash)."""
        if not self._points:
            raise ServiceUnavailable("the cluster has no shards configured")
        index = bisect.bisect_left(self._points, self._hash(key))
        if index == len(self._points):  # wrap past the top of the circle
            index = 0
        return self._owners[index]

    def preference(self, key: str) -> list[str]:
        """All shards in *key*'s ring order (owner first).

        This is the failover order: when the owner is down, the key's
        jobs go to ``preference(key)[1]``, and so on — the same shard
        every client independently computes, so coalescing survives
        failover too.
        """
        if not self._points:
            return []
        start = bisect.bisect_left(self._points, self._hash(key))
        seen: list[str] = []
        for offset in range(len(self._owners)):
            owner = self._owners[(start + offset) % len(self._owners)]
            if owner not in seen:
                seen.append(owner)
                if len(seen) == len(self.shards):
                    break
        return seen


#: Shard verdicts of :meth:`ShardRouter.status`, best first; ``repro
#: cluster status`` exits with the worst one's index.
SHARD_STATES = ("ok", "degraded", "down")


def _shard_state(row: dict) -> str:
    """The verdict on one :meth:`ShardRouter.status` row."""
    metrics = row.get("metrics")
    if metrics is None or metrics["queue"]["workers_alive"] == 0:
        return "down"
    if metrics["cache"]["write_failures"] > 0:
        return "degraded"
    return "ok"


class ShardRouter:
    """Client-side sharding: route batches by content key, survive shards.

    The router owns one :class:`~repro.engine.client.ServiceClient` per
    shard and a :class:`HashRing` over the shard addresses.
    :meth:`run_jobs` groups a batch by owning shard, submits the groups
    concurrently, and — when a shard exhausts its client's retry budget
    — marks it down and re-routes the stranded jobs along each key's
    ring preference.

    Down-marking is **probation**: each downed shard carries a half-open
    probe timer (:func:`probe_backoff` — exponential in its consecutive
    probe failures *and* its lifetime flap count, so an oscillating
    shard is quarantined progressively longer), and :meth:`maybe_probe`
    — called at every routing round — re-admits any shard whose probe
    ``ping`` answers.

    The router is what ``--backend cluster`` campaigns and the
    integration harness drive.  Routing authority is client-side: a
    shard returns to routing only through a probe this router ran
    itself.
    """

    def __init__(self, shards: list[str] | None = None, *,
                 token: str | None = None,
                 timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 replicas: int = DEFAULT_REPLICAS,
                 probe_base: float = PROBE_BASE,
                 probe_cap: float = PROBE_CAP,
                 probe_timeout: float = PROBE_TIMEOUT):
        resolved, self.token = resolve_service(shards, token)
        if not resolved:
            raise ServiceUnavailable(
                "no cluster shards configured: pass --shards, set "
                f"${SHARDS_ENV}, or start `repro cluster serve` here")
        self.ring = HashRing(resolved, replicas=replicas)
        self.timeout = timeout
        #: Per-shard retry budget.  Smaller than the single-service
        #: default: the cluster's failover *is* the deep retry, so each
        #: shard only gets enough tries to ride out a worker restart.
        self.retry = retry if retry is not None else RetryPolicy(attempts=3)
        self.probe_base = probe_base
        self.probe_cap = probe_cap
        self.probe_timeout = probe_timeout
        self._clients: dict[str, ServiceClient] = {}
        #: Probation table: address -> {reason, since, failures,
        #: next_probe}.  Monotonic-clock timestamps.
        self._down: dict[str, dict] = {}
        #: Lifetime flap count per address — survives re-admission, so a
        #: shard that keeps relapsing starts each sentence longer.
        self._flaps: dict[str, int] = {}
        self.stats = {
            "routed_jobs": 0,
            "misrouted_jobs": 0,  # cluster.route fault diverted these
            "failovers": 0,       # shards marked down
            "rerouted_jobs": 0,   # jobs re-homed after a shard dropped
            "probes": 0,          # half-open probes attempted
            "readmissions": 0,    # downed shards re-admitted to routing
            # How the shards satisfied the answered groups, summed from
            # each submit's summary:
            "cache_hits": 0,      # answered by a shard's result cache
            "coalesced": 0,       # attached to a shard's in-flight job
            "enqueued": 0,        # new simulations
        }

    # -- probation -------------------------------------------------------

    def client(self, shard: str) -> ServiceClient:
        """The (cached) client for one shard address."""
        if shard not in self._clients:
            self._clients[shard] = ServiceClient(
                shard, timeout=self.timeout, retry=self.retry,
                token=self.token)
        return self._clients[shard]

    def mark_down(self, shard: str, reason: str) -> None:
        """Put a shard on probation; its keys re-route along the ring."""
        if shard not in self._down:
            flaps = self._flaps.get(shard, 0) + 1
            self._flaps[shard] = flaps
            now = time.monotonic()
            self._down[shard] = {
                "reason": reason,
                "since": now,
                "failures": 0,
                "next_probe": now + probe_backoff(
                    flaps - 1, base=self.probe_base, cap=self.probe_cap),
            }
            self.stats["failovers"] += 1
        client = self._clients.pop(shard, None)
        if client is not None:
            client.close()

    def readmit(self, shard: str) -> None:
        """Lift a shard's probation: it takes traffic from the next round."""
        if self._down.pop(shard, None) is not None:
            self.stats["readmissions"] += 1

    def maybe_probe(self, *, force: bool = False) -> list[str]:
        """Half-open probe every downed shard whose timer has expired.

        A probe is one fresh short-deadline ``ping`` (never the cached
        client — its connection died with the shard).  Success re-admits
        the shard; failure pushes the next probe out by
        :func:`probe_backoff` of the shard's accumulated failure count.
        With *force*, timers are ignored — the last-gasp sweep
        :meth:`run_jobs` runs before declaring the whole cluster down.
        Returns the addresses re-admitted now.
        """
        readmitted: list[str] = []
        now = time.monotonic()
        for shard in list(self._down):
            record = self._down.get(shard)
            if record is None or (not force and now < record["next_probe"]):
                continue
            self.stats["probes"] += 1
            try:
                probe = ServiceClient(shard, timeout=self.probe_timeout,
                                      token=self.token)
                with probe:
                    probe.ping()
            except Exception:  # noqa: BLE001 - any failure = still down
                record["failures"] += 1
                record["next_probe"] = time.monotonic() + probe_backoff(
                    self._flaps.get(shard, 1) - 1 + record["failures"],
                    base=self.probe_base, cap=self.probe_cap)
                continue
            self.readmit(shard)
            readmitted.append(shard)
        return readmitted

    @property
    def down(self) -> dict[str, str]:
        """Shards currently on probation, with the reason each dropped."""
        return {shard: record["reason"]
                for shard, record in self._down.items()}

    @property
    def probation(self) -> dict[str, dict]:
        """The full probation table (reason, since, failures, next_probe)."""
        return {shard: dict(record)
                for shard, record in self._down.items()}

    def alive_shards(self) -> list[str]:
        """Shard addresses not on probation, in configuration order."""
        return [s for s in self.ring.shards if s not in self._down]

    # -- routing ---------------------------------------------------------

    def shard_for_job(self, job: SimJob) -> str:
        """Pick the shard for one job: ring preference minus down shards.

        The ``cluster.route`` fault site bends this decision for the
        chaos suite: ``misroute`` sends the job to its *second*
        preference (a live shard — correctness must not care where a
        job runs), ``drop`` marks the preferred shard down first
        (forcing the rebalance path without any real process dying).
        """
        prefs = [s for s in self.ring.preference(job.content_key())
                 if s not in self._down]
        if not prefs:
            raise ServiceUnavailable(self._all_down_message())
        choice = prefs[0]
        rule = faults.fire("cluster.route")
        if rule is not None:
            if rule.action == "misroute" and len(prefs) > 1:
                choice = prefs[1]
                self.stats["misrouted_jobs"] += 1
            elif rule.action == "drop":
                self.mark_down(choice, "injected cluster.route drop")
                prefs = [s for s in prefs if s != choice]
                if not prefs:
                    raise ServiceUnavailable(self._all_down_message())
                choice = prefs[0]
        self.stats["routed_jobs"] += 1
        return choice

    def route(self, jobs: list[SimJob]) -> dict[str, list[SimJob]]:
        """Group *jobs* by their target shard (order preserved per group)."""
        groups: dict[str, list[SimJob]] = {}
        for job in jobs:
            groups.setdefault(self.shard_for_job(job), []).append(job)
        return groups

    def _all_down_message(self) -> str:
        reasons = "; ".join(
            f"{shard}: {record['reason']}"
            for shard, record in self._down.items())
        return (f"all {len(self.ring.shards)} cluster shard(s) are down "
                f"({reasons})")

    # -- execution -------------------------------------------------------

    def _run_group(self, shard: str, group: list[SimJob]
                   ) -> tuple[list[SimResult], dict] | Exception:
        """One shard's share of a batch: its results and the shard's
        submit summary.  Transient failure downs the shard.

        A round with one group runs it on the caller's thread; a round
        spanning several shards runs each group on a router-private
        thread (groups are disjoint shards, so each client is driven by
        exactly one thread per round).  Returns the exception instead of
        raising so the round can distinguish "this shard died, re-route
        its jobs" from "this *job* is bad, propagate" without tearing
        down sibling groups mid-flight.
        """
        try:
            client = self.client(shard)
            return client.run_jobs(group), client.last_summary
        except (ServiceUnavailable, ServiceTimeout) as exc:
            self.mark_down(shard, str(exc))
            return exc
        except Exception as exc:  # noqa: BLE001 - collected, re-raised
            return exc

    def _outcomes(self, groups: dict[str, list[SimJob]]):
        """Yield each group's :meth:`_run_group` outcome, in group order,
        as it lands: one group runs on the caller's thread, several on
        router-private threads."""
        if len(groups) == 1:
            [(shard, group)] = groups.items()
            yield self._run_group(shard, group)
            return
        with ThreadPoolExecutor(max_workers=len(groups)) as threads:
            yield from threads.map(self._run_group, groups, groups.values())

    def run_jobs(self, jobs: list[SimJob],
                 on_result: OnResult | None = None) -> list[SimResult]:
        """Run a batch across the cluster; results in submission order.

        Each round routes the still-unfinished jobs, submits one group
        per live shard (concurrently when there are several), and loops
        while failovers strand work — so a shard SIGKILL-ed mid-batch
        costs exactly one re-route of its jobs.  Duplicate specs within
        the batch are submitted once and fanned back out, mirroring the
        daemons' own coalescing.  ``on_result(index, result)`` reports
        each shard group's results on the caller's thread as the group
        lands.  Non-transient errors (a failing job, an auth rejection)
        propagate once the round's other groups have landed.
        """
        results: list[SimResult | None] = [None] * len(jobs)
        slots: dict[str, list[int]] = {}
        for i, job in enumerate(jobs):
            slots.setdefault(job.content_key(), []).append(i)
        pending = [jobs[positions[0]] for positions in slots.values()]
        while pending:
            # Give healed shards a chance before each round: probes whose
            # backoff expired run here, so re-admission happens *during*
            # long batches, not only between CLI invocations.
            self.maybe_probe()
            groups = self.route(pending)
            stranded: list[SimJob] = []
            hard_error: Exception | None = None
            with contextlib.closing(self._outcomes(groups)) as outcomes:
                for group, outcome in zip(groups.values(), outcomes):
                    if isinstance(outcome, (ServiceUnavailable,
                                            ServiceTimeout)):
                        stranded.extend(group)
                        self.stats["rerouted_jobs"] += len(group)
                    elif isinstance(outcome, Exception):
                        hard_error = outcome
                    else:
                        group_results, summary = outcome
                        for name in ("cache_hits", "coalesced", "enqueued"):
                            self.stats[name] += summary[name]
                        for job, result in zip(group, group_results):
                            for i in slots[job.content_key()]:
                                results[i] = result
                                if on_result is not None:
                                    on_result(i, result)
            if hard_error is not None:
                raise hard_error
            pending = stranded
            if pending and not self.alive_shards():
                # Last gasp before declaring the fleet dead: probe every
                # probation entry immediately (a stalled-then-resumed
                # shard answers here).  Only an all-probes-failed cluster
                # is actually down.
                if not self.maybe_probe(force=True):
                    raise ServiceUnavailable(self._all_down_message())
        return results  # type: ignore[return-value]

    # -- ops surface -----------------------------------------------------

    def status(self, probe_timeout: float = 5.0) -> dict:
        """One aggregated ops view: the ring and every shard's metrics.

        Scrapes every shard's ``metrics`` op (short deadline, fresh
        connection per probe so a wedged shard cannot hold the status
        call hostage) and reports unreachable shards as such instead of
        failing the aggregate — a status command that dies when a shard
        does would be useless exactly when it matters.

        Each row carries a verdict, ``state``: ``down`` (on probation,
        unreachable, or no live worker), ``degraded`` (serving, but the
        shard absorbed result-cache write failures) or ``ok``.
        """
        self.maybe_probe()
        rows = []
        for shard in self.ring.shards:
            row: dict = {"address": shard, "down": shard in self._down}
            if shard in self._down:
                record = self._down[shard]
                row["reason"] = record["reason"]
                row["probe_failures"] = record["failures"]
                row["next_probe_in_s"] = round(
                    max(0.0, record["next_probe"] - time.monotonic()), 3)
            else:
                try:
                    probe = ServiceClient(shard, timeout=probe_timeout,
                                          token=self.token)
                    with probe:
                        row["metrics"] = probe.metrics()
                except Exception as exc:  # noqa: BLE001 - ops surface
                    row["unreachable"] = str(exc)
            row["state"] = _shard_state(row)
            rows.append(row)
        return {
            "shards": rows,
            "ring": {"shards": len(self.ring.shards),
                     "replicas": self.ring.replicas,
                     "alive": len(self.alive_shards())},
        }

    def shutdown(self) -> dict[str, bool]:
        """Ask every live shard to exit; ``{address: acknowledged}``."""
        acked: dict[str, bool] = {}
        for shard in self.alive_shards():
            try:
                self.client(shard).shutdown()
                acked[shard] = True
            except Exception:  # noqa: BLE001 - best-effort fan-out
                acked[shard] = False
        return acked

    def close(self) -> None:
        """Drop every cached connection (the router stays usable)."""
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ClusterExecutor:
    """Executor backend that fans batches out across cluster shards.

    The remote sibling of
    :class:`~repro.engine.executors.PoolExecutor`: same ``run`` /
    ``describe`` surface, so an ordinary
    :class:`~repro.engine.api.Engine` (and therefore the whole campaign
    / figure stack) runs cluster-wide unchanged.  Construction contacts
    no shard; a cluster whose every shard is down raises
    :class:`~repro.engine.client.ServiceUnavailable` on the first batch.
    """

    def __init__(self, router: ShardRouter):
        self.router = router

    def run(self, jobs: list[SimJob],
            on_result: OnResult | None = None) -> list[SimResult]:
        """Run one batch across the cluster (engine executor hook)."""
        return self.router.run_jobs(jobs, on_result)

    def describe(self) -> str:
        """Human-readable backend label for campaign/status output."""
        return f"cluster({len(self.router.ring.shards)} shards)"


def cluster_engine(shards: list[str] | None = None, *,
                   token: str | None = None,
                   timeout: float | None = None):
    """An :class:`~repro.engine.api.Engine` whose batches run on a cluster.

    The executor is a :class:`ClusterExecutor` over a fresh
    :class:`ShardRouter` (*shards* resolved as
    :func:`~repro.engine.client.resolve_service` does — one address is
    a one-daemon cluster).  The client's result cache is the default
    engine's, so it follows ``--cache-dir`` / ``$REPRO_CACHE_DIR`` as a
    local run does (memory-only when unset).  It short-circuits repeat
    lookups (figure rendering after a campaign) without a round trip,
    and with a directory it holds every result as it lands, so rerunning
    a killed campaign picks up where it stopped.
    """
    from repro.engine.api import Engine, default_engine

    router = ShardRouter(shards, token=token, timeout=timeout)
    return Engine(executor=ClusterExecutor(router),
                  cache=default_engine().cache)
