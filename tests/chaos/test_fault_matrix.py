"""The fault matrix: seeded chaos plans against a real service stack.

Each test runs a real :class:`~repro.engine.service.SimService` (its own
socket, worker pool, cache, journal) under a deterministic
:mod:`repro.engine.faults` plan and asserts the ISSUE's acceptance bar:

* **survivable** faults — worker crashes/hangs/slowdowns, dropped or
  torn socket responses, journal/cache write failures, shm
  attach/materialise failures — end in :class:`SimResult`s
  **bit-identical** to the fault-free run;
* **fatal** faults — a job that crashes its worker on every dispatch —
  end in a clean typed error within a bounded deadline, never a hang;
* a daemon past its queue bound sheds load with an explicit
  ``overloaded`` response instead of growing without bound.

The daemon runs *in-process* (a background thread with its own event
loop) so a test can install a fault plan at an exact point in the
operation sequence — the plan's counters then line up with the requests
the test makes, which is what keeps the matrix deterministic.  The
worker processes are real ``spawn`` children either way; worker-side
sites activate through the exported ``$REPRO_FAULTS``.
"""

import asyncio
import os
import re
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import faults
from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    wait_for_service,
)
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob
from repro.engine.service import SimService
from repro.pipeline.result import SimResult

REPO_ROOT = Path(__file__).resolve().parents[2]

SMALL = dict(n_uops=2000, warmup=1000)

#: The standard six-job batch most matrix entries run (two predictors
#: over three workloads — enough to keep both workers busy and exercise
#: requeue ordering, small enough to keep the matrix fast).
JOBS = [SimJob.make(w, p, **SMALL)
        for p in ("lvp", "2dstride") for w in ("gzip", "gcc", "crafty")]


@pytest.fixture(scope="module")
def expected():
    """The fault-free answer, computed once in-process."""
    engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
    return [r.to_dict() for r in engine.run_jobs(JOBS)]


@pytest.fixture(autouse=True)
def clean_fault_state():
    """No plan (or exported spec) leaks between matrix entries."""
    faults.reset()
    yield
    faults.install_plan(None, export_env=True)
    faults.reset()


class Daemon:
    """An in-process daemon on a background thread (real socket, real
    spawn workers), so tests can install fault plans mid-flight."""

    def __init__(self, socket_path, **kwargs):
        self.service = SimService(socket_path, **kwargs)
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.error = None

    def _run(self):
        try:
            asyncio.run(self.service.serve_until_shutdown())
        except BaseException as exc:  # noqa: BLE001 - surfaced by stop()
            self.error = exc

    def __enter__(self):
        self.thread.start()
        try:
            wait_for_service(self.service.socket_path, timeout=60)
        except ServiceError:
            if self.error is not None:
                raise self.error from None
            raise
        return self

    def __exit__(self, *exc):
        try:
            with ServiceClient(self.service.socket_path, timeout=10.0) as c:
                c.shutdown()
        except ServiceError:
            pass
        self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "daemon failed to shut down"


def _results(response):
    return response["results"]


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out: {message}"
        time.sleep(0.05)


class TestSurvivableWorkerFaults:
    def test_worker_crash_is_requeued_bit_identically(self, tmp_path,
                                                      expected):
        with Daemon(tmp_path / "d.sock", workers=2) as d:
            faults.install_plan("worker.execute:crash@2", seed=0)
            with ServiceClient(d.service.socket_path) as client:
                response = client.submit(JOBS)
                health = client.health()
        assert _results(response) == expected
        assert health["restarts"] >= 1
        assert not health["degraded_mode"]  # a crash is routine, not degraded

    def test_worker_slowdown_changes_nothing(self, tmp_path, expected):
        with Daemon(tmp_path / "d.sock", workers=2) as d:
            faults.install_plan("worker.execute:slow:0.05@every=2", seed=0)
            with ServiceClient(d.service.socket_path) as client:
                response = client.submit(JOBS)
        assert _results(response) == expected

    def test_hung_worker_is_killed_by_the_job_timeout(self, tmp_path,
                                                      expected):
        # The timeout must clear a worker's worst legitimate job (fresh
        # spawn + first trace build) while still catching the 60s hang.
        with Daemon(tmp_path / "d.sock", workers=2, job_timeout=5.0) as d:
            faults.install_plan("worker.execute:hang:60@1", seed=0)
            with ServiceClient(d.service.socket_path) as client:
                response = client.submit(JOBS)
                health = client.health()
        assert _results(response) == expected
        assert health["timeouts"] >= 1
        assert health["restarts"] >= 1


class TestFatalWorkerFaults:
    def test_always_crashing_job_fails_typed_not_hanging(self, tmp_path):
        with Daemon(tmp_path / "d.sock", workers=1) as d:
            faults.install_plan("worker.execute:crash@every=1", seed=0)
            client = ServiceClient(d.service.socket_path, timeout=120.0,
                                   retry=RetryPolicy(attempts=1))
            with pytest.raises(ServiceError, match="lost its worker"):
                client.submit([JOBS[0]])
            client.close()
            faults.install_plan(None)
            # The daemon survived its pool melting down: the same job
            # succeeds once the fault clears.
            with ServiceClient(d.service.socket_path) as client:
                response = client.submit([JOBS[0]])
        assert len(_results(response)) == 1


class TestSocketFaults:
    @pytest.mark.parametrize("action", ["drop", "partial"])
    def test_lost_response_is_retried_idempotently(self, tmp_path, expected,
                                                   action):
        with Daemon(tmp_path / "d.sock", workers=2) as d:
            with ServiceClient(d.service.socket_path) as probe:
                before = probe.status()["queue"]["stats"]["executed"]
            # Installed *after* the probe: the very next response the
            # daemon sends (our submit's) is the one that dies.
            faults.install_plan(f"service.send:{action}@1", seed=0)
            client = ServiceClient(d.service.socket_path,
                                   retry=RetryPolicy(attempts=3, base=0.01))
            results = client.run_jobs(JOBS)
            client.close()
            faults.install_plan(None)
            with ServiceClient(d.service.socket_path) as probe:
                after = probe.status()["queue"]["stats"]["executed"]
        assert [r.to_dict() for r in results] == expected
        # Exactly-once execution: the retried batch coalesced/cache-hit,
        # it did not re-run the simulations.
        assert after - before == len(JOBS)

    def test_stalled_response_times_out_typed(self, tmp_path):
        with Daemon(tmp_path / "d.sock", workers=1) as d:
            faults.install_plan("service.send:stall:30@1", seed=0)
            client = ServiceClient(d.service.socket_path, timeout=1.0,
                                   retry=RetryPolicy(attempts=1))
            with pytest.raises(ServiceTimeout):
                client.ping()
            client.close()


class TestStorageFaults:
    def test_torn_journal_write_degrades_and_recovers(self, tmp_path,
                                                      expected):
        journal = tmp_path / "svc.jsonl"
        with Daemon(tmp_path / "d.sock", workers=1,
                    journal_path=journal) as d:
            faults.install_plan("journal.write:torn@1", seed=0)
            with ServiceClient(d.service.socket_path) as client:
                response = client.submit(JOBS)
                health = client.health()
        assert _results(response) == expected          # served regardless
        assert health["degraded"]["journal_failures"] == 1
        assert health["degraded_mode"]
        faults.install_plan(None)
        # The torn half-record sits at EOF (journaling stopped at the
        # first failure, so nothing fused with it); a restarted daemon
        # truncates the tear, replays nothing, and re-serves correctly.
        with Daemon(tmp_path / "d.sock", workers=1,
                    journal_path=journal) as d:
            assert d.service.replayed == 0
            with ServiceClient(d.service.socket_path) as client:
                again = client.submit(JOBS)
        assert _results(again) == expected

    def test_failing_cache_persist_stays_in_memory(self, tmp_path, expected):
        with Daemon(tmp_path / "d.sock", workers=2,
                    cache=ResultCache(tmp_path / "cache")) as d:
            faults.install_plan("cache.write:error@every=1", seed=0)
            with ServiceClient(d.service.socket_path) as client:
                first = client.submit(JOBS)
                health = client.health()
                # Every persist failed, but the memory layer answers.
                second = client.submit(JOBS)
        assert _results(first) == expected
        assert _results(second) == expected
        assert second["summary"]["cache_hits"] == len(JOBS)
        assert health["degraded"]["cache_write_failures"] >= 1
        assert health["degraded_mode"]
        assert not list((tmp_path / "cache").glob("??/*.json"))


class TestShmDegradationLadder:
    """Tier by tier: shm → local rebuild → (fail job only if both die)."""

    def test_attach_failure_degrades_to_local_rebuild(self, tmp_path,
                                                      expected):
        # Worker-side site: must arrive via the environment the spawned
        # workers inherit, before the pool starts.
        faults.install_plan("shm.attach:fail@every=1", seed=0,
                            export_env=True)
        faults.reset()  # parent re-resolves from env like a worker would
        with Daemon(tmp_path / "d.sock", workers=2) as d:
            with ServiceClient(d.service.socket_path) as client:
                response = client.submit(JOBS)
        assert _results(response) == expected

    def test_materialize_failure_degrades_to_bare_dispatch(self, tmp_path,
                                                           expected):
        with Daemon(tmp_path / "d.sock", workers=2) as d:
            faults.install_plan("shm.materialize:fail@every=1", seed=0)
            with ServiceClient(d.service.socket_path) as client:
                response = client.submit(JOBS)
                health = client.health()
        assert _results(response) == expected
        assert health["degraded"]["shm_failures"] >= 1


class TestBackpressure:
    def test_over_bound_submit_is_shed_with_overloaded(self, tmp_path):
        big = [SimJob.make(w, "vtage", n_uops=30000, warmup=15000)
               for w in ("gzip", "gcc")]
        with Daemon(tmp_path / "d.sock", workers=1, max_depth=2) as d:
            with ServiceClient(d.service.socket_path) as client:
                ticket = client.submit(big, wait=False)["ticket"]
                # The queue is now full: a batch of new jobs is rejected
                # whole, with the typed backpressure error.
                extra = [SimJob.make(w, "lvp", **SMALL)
                         for w in ("crafty", "applu")]
                with pytest.raises(ServiceOverloaded):
                    client.submit(extra)
                health = client.health()
                assert health["rejected"] >= 1
                # Cache hits and coalesced jobs are free — resubmitting
                # the *in-flight* batch is admitted even at the bound.
                coalesced = client.submit(big, wait=False)
                assert coalesced["summary"]["coalesced"] == len(big)
                # Once the queue drains, the shed batch is admitted.
                import time
                deadline = time.monotonic() + 120.0
                while client.results(ticket).get("pending"):
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                accepted = client.submit(extra)
        assert len(_results(accepted)) == len(extra)

    def test_client_retry_rides_out_backpressure(self, tmp_path):
        big = [SimJob.make(w, "vtage", n_uops=30000, warmup=15000)
               for w in ("gzip", "gcc")]
        extra = [SimJob.make("crafty", "lvp", **SMALL)]
        with Daemon(tmp_path / "d.sock", workers=1, max_depth=2) as d:
            with ServiceClient(d.service.socket_path) as filler:
                filler.submit(big, wait=False)
            client = ServiceClient(
                d.service.socket_path,
                retry=RetryPolicy(attempts=8, base=0.5, cap=8.0))
            # run_jobs absorbs the overloaded responses and backs off
            # until the big batch drains; no caller-side special-casing.
            results = client.run_jobs(extra)
            client.close()
        assert len(results) == 1


class TestSingleWriterLocks:
    def test_second_daemon_on_same_socket_is_refused(self, tmp_path):
        socket_path = tmp_path / "d.sock"
        with Daemon(socket_path, workers=1):
            with pytest.raises(ServiceError, match="lock|already listening"):
                asyncio.run(SimService(socket_path, workers=1).start())

    def test_two_daemons_cannot_share_a_journal(self, tmp_path):
        from repro.engine.checkpoint import JournalError

        journal = tmp_path / "svc.jsonl"
        with Daemon(tmp_path / "a.sock", workers=1, journal_path=journal):
            with pytest.raises(JournalError, match="already being written"):
                asyncio.run(SimService(tmp_path / "b.sock", workers=1,
                                       journal_path=journal).start())

    def test_stale_socket_is_cleaned_and_rebound(self, tmp_path):
        socket_path = tmp_path / "d.sock"
        # Leave a dead socket behind, as a SIGKILLed daemon would.
        stale = socket_module.socket(socket_module.AF_UNIX,
                                     socket_module.SOCK_STREAM)
        stale.bind(str(socket_path))
        stale.close()
        assert socket_path.exists()
        with Daemon(socket_path, workers=1) as d:
            with ServiceClient(d.service.socket_path) as client:
                assert client.ping()["pid"] == os.getpid()


class TestChaosIntrospection:
    def test_chaos_op_reports_the_live_plan(self, tmp_path):
        with Daemon(tmp_path / "d.sock", workers=1, chaos=True) as d:
            faults.install_plan("journal.write:torn@7", seed=3)
            with ServiceClient(d.service.socket_path) as client:
                plan = client.chaos()
                health = client.health()
        assert plan["seed"] == 3
        assert plan["rules"] == ["journal.write:torn@7"]
        assert health["chaos"] is True

    def test_chaos_op_is_refused_without_the_flag(self, tmp_path):
        with Daemon(tmp_path / "d.sock", workers=1) as d:
            with ServiceClient(d.service.socket_path) as client:
                with pytest.raises(ServiceError, match="disabled"):
                    client.chaos()


class TcpShardDaemon(Daemon):
    """A :class:`Daemon` on the TCP transport (a cluster shard)."""

    def __init__(self, **kwargs):
        kwargs.setdefault("listen", "127.0.0.1:0")
        super().__init__(None, **kwargs)

    def __enter__(self):
        self.thread.start()
        while self.service.listen_address is None:
            if self.error is not None:
                raise self.error
            threading.Event().wait(0.02)
        wait_for_service(self.service.listen_address, timeout=60,
                         token=self.service.token)
        return self

    def __exit__(self, *exc):
        try:
            with ServiceClient(self.service.listen_address, timeout=10.0,
                               token=self.service.token) as client:
                client.shutdown()
        except ServiceError:
            pass
        self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "shard failed to shut down"


class TestClusterFaults:
    """Shard-level faults: the shared result plane and router routing.

    Same bar as the rest of the matrix: every survivable cluster fault
    — a result that never reached the shared cache directory, a
    SIGKILLed shard, a misrouted or dropped routing decision — must end
    in results bit-identical to the fault-free run.  A result the plane
    failed to carry costs a re-simulation, never a wrong answer.
    """

    @pytest.mark.parametrize("action", ["error", "torn"])
    def test_unpublished_result_resimulates(self, tmp_path, expected,
                                            action):
        # Upstream's every publish fails (an IO error, or a write torn
        # before its rename), so the shared directory holds nothing
        # committed and the downstream shard must simulate everything.
        with TcpShardDaemon(workers=1,
                            cache=ResultCache(tmp_path)) as upstream:
            faults.install_plan(f"cache.write:{action}@every=1", seed=0)
            with ServiceClient(upstream.service.listen_address) as client:
                client.submit(JOBS)
            faults.install_plan(None)
        assert not list(tmp_path.glob("??/*.json"))
        with TcpShardDaemon(workers=1,
                            cache=ResultCache(tmp_path)) as shard:
            with ServiceClient(shard.service.listen_address) as client:
                response = client.submit(JOBS)
        assert _results(response) == expected
        assert response["summary"]["enqueued"] == len(JOBS)

    def test_federation_survives_a_sigkilled_peer(self, tmp_path, expected):
        # An upstream shard publishes half the batch to the shared cache
        # directory and is then SIGKILLed.  A shard gossiping with the
        # corpse serves the published half from the directory and
        # simulates the rest — bit-identically — and claims the dead
        # peer down.
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path), REPRO_SHM="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", ""))
            if p)
        for name in ("REPRO_SERVICE_TOKEN", "REPRO_FAULTS"):
            env.pop(name, None)
        upstream = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "-j", "1", "cluster",
             "serve", "--listen", "127.0.0.1:0",
             "--heartbeat-interval", "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            line = upstream.stderr.readline()
            match = re.search(r"listen=(tcp://\S+)", line)
            assert match, f"no ready line from upstream: {line!r}"
            address = match.group(1)
            with ServiceClient(address) as client:
                client.submit(JOBS[:3])
        finally:
            upstream.send_signal(signal.SIGKILL)
            upstream.wait(timeout=15)
            upstream.stderr.close()
        with TcpShardDaemon(workers=1, cache=ResultCache(tmp_path),
                            peers=[address],
                            heartbeat_interval=0.1) as shard:
            with ServiceClient(shard.service.listen_address) as client:
                response = client.submit(JOBS)
            _wait_for(
                lambda: shard.service.gossip_failures >= 1,
                message="a failed heartbeat to the dead peer")
            dead = shard.service.membership.get(address)
        assert _results(response) == expected
        assert response["summary"]["cache_hits"] == 3
        assert response["summary"]["enqueued"] == 3
        assert dead is not None and dead.status == "down"

    def test_routing_faults_keep_results_bit_identical(self, expected):
        from repro.engine.cluster import ShardRouter

        with TcpShardDaemon(workers=1) as a, TcpShardDaemon(workers=1) as b:
            router = ShardRouter([a.service.listen_address,
                                  b.service.listen_address])
            faults.install_plan(
                "cluster.route:misroute@2;cluster.route:drop@5", seed=0)
            results = router.run_jobs(JOBS)
            router.close()
        assert [r.to_dict() for r in results] == expected
        assert router.stats["misrouted_jobs"] == 1
        assert router.stats["failovers"] == 1
        assert len(router.alive_shards()) == 1


class TestSelfHealingFaults:
    """Gossip fault sites: the membership plane must converge through
    dropped and delayed heartbeats."""

    def test_dropped_heartbeats_only_slow_convergence(self):
        # Every second heartbeat is dropped; the fleet's views must still
        # converge to both-alive, with the drops visible in the counters.
        faults.install_plan("gossip.heartbeat:drop@every=2", seed=0)
        with TcpShardDaemon(workers=1, heartbeat_interval=0.1) as a:
            with TcpShardDaemon(
                    workers=1, heartbeat_interval=0.1,
                    peers=[a.service.listen_address]) as b:
                _wait_for(
                    lambda: len(a.service.membership.alive()) == 2
                    and len(b.service.membership.alive()) == 2,
                    message="membership convergence under drops")
                # Convergence can land on the very first (undropped)
                # heartbeat, so wait for a drop rather than asserting
                # one already happened: heartbeats keep flowing, so
                # every=2 must fire soon after.
                _wait_for(
                    lambda: (a.service.gossip_dropped
                             + b.service.gossip_dropped) >= 1,
                    message="an every=2 heartbeat drop")

    def test_delayed_heartbeats_only_slow_convergence(self):
        faults.install_plan("gossip.heartbeat:delay:0.05@every=2", seed=0)
        with TcpShardDaemon(workers=1, heartbeat_interval=0.1) as a:
            with TcpShardDaemon(
                    workers=1, heartbeat_interval=0.1,
                    peers=[a.service.listen_address]) as b:
                _wait_for(
                    lambda: len(a.service.membership.alive()) == 2
                    and len(b.service.membership.alive()) == 2,
                    message="membership convergence under delays")
