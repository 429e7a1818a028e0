"""Shard the simulation service: consistent hashing, routing, failover.

One :class:`~repro.engine.service.SimService` daemon scales to one
machine's cores.  The cluster plane scales past that with the dumbest
topology that preserves the engine's invariants: N independent daemons
("shards"), each listening on TCP (``repro cluster serve``), and a
client-side :class:`ShardRouter` that deterministically maps every job
to a shard by consistent-hashing its **content key** — the same digest
that already names the job in the cache, the journal and the coalescing
table.  Routing by content key means:

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
removing a shard only remaps *that shard's* keys — everyone else's
cache locality survives the membership change.

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
that answers ``ping`` re-admits the shard to routing.  The shards
themselves gossip an eventually-consistent :class:`MembershipView`
(monotone ``(epoch, beat)`` versions, epoch persisted in the service
journal so a restart outranks its own corpse), which
:meth:`ShardRouter.refresh_membership` merges to discover joins and
accelerate re-admission probes — so a revived shard re-enters every
router's ring without anyone restarting anything.

:class:`ClusterExecutor` / :func:`cluster_engine` wrap the router in the
standard executor/engine shape, which is what ``repro campaign run
--backend cluster`` and ``repro cluster run`` use; ``repro cluster
status`` renders :meth:`ShardRouter.status` — the per-shard ``metrics``
op aggregated into one ops view.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.engine import faults
from repro.engine.client import (
    RetryPolicy,
    ServiceClient,
    ServiceOverloaded,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.engine.job import SimJob
from repro.pipeline.result import SimResult

#: Environment variable listing cluster shard addresses (comma-separated).
SHARDS_ENV = "REPRO_CLUSTER_SHARDS"

#: Virtual nodes per shard.  Enough that a handful of shards spread keys
#: within a few percent of even; cheap enough that ring rebuilds are
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
    non-decreasing in *failures*; pinned by the membership property
    suite.
    """
    return min(cap, base * (2 ** max(0, int(failures))))


@dataclass(frozen=True)
class MemberState:
    """One shard's liveness claim: ``(epoch, beat)``-versioned up/down.

    ``epoch`` counts the shard's incarnations (persisted in its service
    journal, so a restart always outranks claims about its previous
    life); ``beat`` counts heartbeats within an incarnation.  Between
    two claims about the same address the higher ``(epoch, beat)`` wins;
    on a version tie ``down`` wins — a claim of death at the same
    version means the reporter saw the heartbeat *fail*.
    """

    address: str
    epoch: int = 1
    beat: int = 0
    status: str = "up"

    @property
    def version(self) -> tuple[int, int]:
        """The claim's logical clock, ``(epoch, beat)``."""
        return (self.epoch, self.beat)

    def supersedes(self, other: "MemberState | None") -> bool:
        """Whether this claim replaces *other* under the merge rule."""
        if other is None:
            return True
        if self.version != other.version:
            return self.version > other.version
        return self.status == "down" and other.status != "down"

    def to_dict(self) -> dict:
        """Wire form of the claim (the ``gossip`` op's member rows)."""
        return {"address": self.address, "epoch": self.epoch,
                "beat": self.beat, "status": self.status}

    @classmethod
    def from_dict(cls, raw: object) -> "MemberState | None":
        """Parse one wire-form claim; ``None`` for anything malformed.

        Gossip crosses trust and version boundaries, so a bad row must
        cost nothing (it is simply not merged), never an exception.
        """
        if not isinstance(raw, dict):
            return None
        try:
            address = str(raw["address"])
            epoch = int(raw["epoch"])
            beat = int(raw["beat"])
            status = str(raw["status"])
        except (KeyError, TypeError, ValueError):
            return None
        if not address or status not in ("up", "down"):
            return None
        return cls(address=address, epoch=epoch, beat=beat, status=status)


class MembershipView:
    """An eventually-consistent map of shard address → :class:`MemberState`.

    A state-based CRDT: :meth:`observe` keeps the superseding claim per
    address (higher ``(epoch, beat)`` wins, ``down`` wins ties), which
    makes :meth:`merge` commutative, associative and idempotent — any
    set of routers and shards exchanging views in any order converges
    to the same map, the property the membership suite pins.
    """

    def __init__(self, members: dict[str, MemberState] | None = None):
        self.members: dict[str, MemberState] = dict(members or {})

    def observe(self, state: MemberState) -> bool:
        """Fold one claim in; True when it superseded what we held."""
        if state.supersedes(self.members.get(state.address)):
            self.members[state.address] = state
            return True
        return False

    def merge(self, other: "MembershipView | dict | None") -> int:
        """Fold another view (or its wire form) in; claims superseded."""
        changed = 0
        if isinstance(other, MembershipView):
            states = list(other.members.values())
        else:
            rows = other.get("members", ()) if isinstance(other, dict) else ()
            states = [MemberState.from_dict(raw) for raw in rows] \
                if isinstance(rows, (list, tuple)) else []
        for state in states:
            if state is not None and self.observe(state):
                changed += 1
        return changed

    def get(self, address: str) -> MemberState | None:
        """The current claim about *address*, if any."""
        return self.members.get(address)

    def alive(self) -> list[str]:
        """Addresses currently claimed up, sorted for determinism."""
        return sorted(address for address, state in self.members.items()
                      if state.status == "up")

    def to_dict(self) -> dict:
        """Wire form: ``{"members": [claim, ...]}`` in sorted order."""
        return {"members": [self.members[address].to_dict()
                            for address in sorted(self.members)]}

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MembershipView) and \
            self.members == other.members

    def __repr__(self) -> str:
        return f"MembershipView({self.members!r})"


def resolve_shards(explicit: list[str] | None = None) -> list[str]:
    """Resolve the shard address list (flag, else ``$REPRO_CLUSTER_SHARDS``).

    Addresses are ``host:port`` / ``tcp://host:port`` (normalised to the
    latter) or Unix socket paths; order is irrelevant to routing (the
    ring hashes addresses, not positions) but preserved for display.
    """
    if explicit:
        raw = list(explicit)
    else:
        raw = [piece for piece in
               os.environ.get(SHARDS_ENV, "").split(",") if piece.strip()]
    return [normalize_shard(piece) for piece in raw]


def normalize_shard(address: str) -> str:
    """Canonicalise one shard address.

    ``host:port`` becomes ``tcp://host:port`` (the cluster plane is
    TCP-first, and a bare ``host:port`` here is unambiguous in a way a
    generic client target is not); ``tcp://`` addresses and socket
    paths pass through.  Canonical form matters: the ring hashes the
    address string, so two spellings of one shard must collapse.
    """
    text = str(address).strip()
    if text.startswith("tcp://"):
        return text
    host, sep, port = text.rpartition(":")
    if sep and host and port.isdigit():
        return f"tcp://{host}:{port}"
    return text


class HashRing:
    """Consistent-hash ring mapping content keys to shard addresses.

    Each shard contributes :attr:`replicas` virtual nodes — points on a
    64-bit circle at ``sha256(address#i)`` — and a key belongs to the
    first point at or after ``sha256(key)``.  The two properties the
    cluster relies on, both exercised by the property suite:

    * **balance** — with enough virtual nodes, each of N shards owns
      ~1/N of a large key population;
    * **minimal remapping** — adding or removing a shard only moves
      keys onto / off that shard; no key moves *between* two surviving
      shards.
    """

    def __init__(self, shards: list[str],
                 replicas: int = DEFAULT_REPLICAS):
        self.replicas = max(1, int(replicas))
        # De-dup while preserving insertion order for display.
        self.shards: list[str] = list(dict.fromkeys(shards))
        self._points: list[int] = []
        self._owners: list[str] = []
        self._rebuild()

    @staticmethod
    def _hash(label: str) -> int:
        return int.from_bytes(
            hashlib.sha256(label.encode()).digest()[:8], "big")

    def _rebuild(self) -> None:
        pairs = sorted(
            (self._hash(f"{shard}#{replica}"), shard)
            for shard in self.shards
            for replica in range(self.replicas)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [shard for _, shard in pairs]

    def __len__(self) -> int:
        return len(self.shards)

    def add(self, shard: str) -> None:
        """Add a shard (idempotent) and rebuild the ring."""
        if shard not in self.shards:
            self.shards.append(shard)
            self._rebuild()

    def remove(self, shard: str) -> None:
        """Remove a shard (idempotent) and rebuild the ring."""
        if shard in self.shards:
            self.shards.remove(shard)
            self._rebuild()

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
    ``ping`` answers.  :meth:`refresh_membership` additionally merges
    the shards' gossiped :class:`MembershipView`, which discovers joins
    (new members enter the ring) and fast-tracks probes for members the
    fleet already sees alive again.

    The router is what ``--backend cluster`` campaigns and the
    integration harness drive.  Routing authority stays client-side —
    the gossiped view can only *add* candidates and accelerate probes;
    a shard enters the routing ring through a probe this router ran
    itself, so stale gossip cannot force traffic onto a corpse.
    """

    def __init__(self, shards: list[str] | None = None, *,
                 token: str | None = None,
                 timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 replicas: int = DEFAULT_REPLICAS,
                 probe_base: float = PROBE_BASE,
                 probe_cap: float = PROBE_CAP,
                 probe_timeout: float = PROBE_TIMEOUT):
        resolved = resolve_shards(shards)
        if not resolved:
            raise ServiceUnavailable(
                "no cluster shards configured: pass --shard/addresses or "
                f"set ${SHARDS_ENV}")
        self.ring = HashRing(resolved, replicas=replicas)
        self.token = token
        self.timeout = timeout
        #: Per-shard retry budget.  Smaller than the single-service
        #: default: the cluster's failover *is* the deep retry, so each
        #: shard only gets enough tries to ride out a worker restart.
        self.retry = retry if retry is not None else RetryPolicy(attempts=3)
        self.probe_base = probe_base
        self.probe_cap = probe_cap
        self.probe_timeout = probe_timeout
        #: The router's copy of the fleet's gossiped membership view
        #: (grown by :meth:`refresh_membership`; advisory only — routing
        #: authority stays with :attr:`ring` minus the probation table).
        self.view = MembershipView()
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
            "joined_shards": 0,   # shards learned from gossip, not config
            "gossip_merges": 0,   # membership claims merged from shards
        }

    # -- membership ------------------------------------------------------

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

    def refresh_membership(self) -> MembershipView:
        """Merge the shards' gossiped membership into the router's view.

        Exchanges views with every shard not on probation (best-effort:
        an unreachable shard is skipped, not downed — only real traffic
        downs a shard).  Consequences of the merged view:

        * members the fleet sees **up** that this router never knew join
          the ring (``joined_shards``);
        * members on probation that the fleet sees up get their probe
          timer zeroed, so the next :meth:`maybe_probe` re-checks them
          immediately instead of waiting out the backoff.

        Gossip never *directly* re-admits or downs anything here — the
        probe keeps the final say, so a stale or lying view cannot
        divert traffic onto a corpse.
        """
        for shard in self.alive_shards():
            try:
                response = self.client(shard).gossip(self.view.to_dict())
            except Exception:  # noqa: BLE001 - advisory path, fail open
                continue
            self.stats["gossip_merges"] += self.view.merge(
                response.get("view"))
        for address, state in self.view.members.items():
            if state.status != "up":
                continue
            if address not in self.ring.shards:
                self.ring.add(address)
                self.stats["joined_shards"] += 1
            record = self._down.get(address)
            if record is not None:
                record["next_probe"] = 0.0
        return self.view

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

    def _run_group(self, shard: str,
                   group: list[SimJob]) -> list[SimResult] | Exception:
        """One shard's share of a batch; transient failure downs the shard.

        Runs on a router-private thread (groups are disjoint shards, so
        each client is driven by exactly one thread per round).  Returns
        the exception instead of raising so the round can distinguish
        "this shard died, re-route its jobs" from "this *job* is bad,
        propagate" without tearing down sibling groups mid-flight.
        """
        try:
            return self.client(shard).run_jobs(group)
        except (ServiceUnavailable, ServiceTimeout) as exc:
            self.mark_down(shard, str(exc))
            return exc
        except Exception as exc:  # noqa: BLE001 - collected, re-raised
            return exc

    def run_jobs(self, jobs: list[SimJob]) -> list[SimResult]:
        """Run a batch across the cluster; results in submission order.

        Each round routes the still-unfinished jobs, submits one group
        per live shard concurrently, and loops while failovers strand
        work — so a shard SIGKILL-ed mid-batch costs exactly one
        re-route of its jobs.  Duplicate specs within the batch are
        submitted once and fanned back out, mirroring the daemons' own
        coalescing.  Non-transient errors (a failing job, an auth
        rejection) propagate immediately.
        """
        if not jobs:
            return []
        by_key: dict[str, SimResult] = {}
        pending: list[SimJob] = []
        seen: set[str] = set()
        for job in jobs:
            key = job.content_key()
            if key not in seen:
                seen.add(key)
                pending.append(job)
        while pending:
            # Give healed shards a chance before each round: probes whose
            # backoff expired run here, so re-admission happens *during*
            # long batches, not only between CLI invocations.
            self.maybe_probe()
            groups = self.route(pending)
            with ThreadPoolExecutor(max_workers=len(groups)) as pool:
                outcomes = {
                    shard: pool.submit(self._run_group, shard, group)
                    for shard, group in groups.items()
                }
            stranded: list[SimJob] = []
            hard_error: Exception | None = None
            for shard, future in outcomes.items():
                outcome = future.result()
                group = groups[shard]
                if isinstance(outcome, (ServiceUnavailable, ServiceTimeout)):
                    stranded.extend(group)
                    self.stats["rerouted_jobs"] += len(group)
                elif isinstance(outcome, Exception):
                    hard_error = outcome
                else:
                    for job, result in zip(group, outcome):
                        by_key[job.content_key()] = result
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
        return [by_key[job.content_key()] for job in jobs]

    # -- ops surface -----------------------------------------------------

    def status(self, probe_timeout: float = 5.0) -> dict:
        """One aggregated ops view: ring, router counters, shard metrics.

        Scrapes every shard's ``metrics`` op (short deadline, fresh
        connection per probe so a wedged shard cannot hold the status
        call hostage) and reports unreachable shards as such instead of
        failing the aggregate — a status command that dies when a shard
        does would be useless exactly when it matters.
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
            rows.append(row)
        return {
            "shards": rows,
            "ring": {"shards": len(self.ring.shards),
                     "replicas": self.ring.replicas,
                     "alive": len(self.alive_shards())},
            "router": dict(self.stats),
            "membership": self.view.to_dict(),
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

    The cluster-shaped sibling of
    :class:`~repro.engine.client.ServiceExecutor`: same ``run`` /
    ``jobs`` / ``describe`` surface, so an ordinary
    :class:`~repro.engine.api.Engine` (and therefore the whole campaign
    / checkpoint / figure stack) runs cluster-wide unchanged.  ``jobs``
    is the summed worker count of the shards that answered ``ping`` —
    campaign chunk sizing then matches the cluster's real width.
    """

    def __init__(self, router: ShardRouter):
        self.router = router
        total = 0
        for shard in list(router.alive_shards()):
            try:
                total += int(router.client(shard).ping().get("workers", 1))
            except (ServiceUnavailable, ServiceTimeout) as exc:
                router.mark_down(shard, str(exc))
        if not router.alive_shards():
            raise ServiceUnavailable(router._all_down_message())
        self.jobs = max(1, total)

    def run(self, jobs: list[SimJob]) -> list[SimResult]:
        """Run one batch across the cluster (engine executor hook)."""
        if not jobs:
            return []
        return self.router.run_jobs(jobs)

    def describe(self) -> str:
        """Human-readable backend label for campaign/status output."""
        return (f"cluster({len(self.router.ring.shards)} shards, "
                f"{self.jobs} workers)")


def cluster_engine(shards: list[str] | None = None, *,
                   token: str | None = None,
                   timeout: float | None = None):
    """An :class:`~repro.engine.api.Engine` whose batches run on a cluster.

    Mirrors :func:`~repro.engine.client.service_engine`: the local cache
    is memory-only (persistence and sharing live shard-side, partitioned
    by the ring), the executor is a :class:`ClusterExecutor` over a
    fresh :class:`ShardRouter`.  This is ``repro campaign run --backend
    cluster`` and ``repro cluster run``.
    """
    from repro.engine.api import Engine
    from repro.engine.cache import ResultCache

    router = ShardRouter(shards, token=token, timeout=timeout)
    return Engine(executor=ClusterExecutor(router), cache=ResultCache(None))
