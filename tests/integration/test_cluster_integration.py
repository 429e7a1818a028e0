"""Cluster round-trip tests: real TCP shards, real failures.

The acceptance bar of the cluster plane, against ``repro cluster
serve`` subprocesses:

* a 2-shard TCP cluster serves two concurrent clients' overlapping
  24-job grids **bit-identical** to in-process ``run_jobs``, with every
  shard doing part of the work and auth enforced end to end;
* ``SIGKILL`` of one shard mid-grid loses no jobs — the router marks
  the shard down and re-routes its keys along the hash ring, and the
  full result set stays dataclass-equal to the local run;
* shards sharing one ``$REPRO_CACHE_DIR`` never re-simulate a result
  another shard published — not while it lives, nor after a SIGKILL;
* ``repro cluster status`` reports per-shard queue depth and cache
  hit/miss counts (the ops surface the ISSUE asks for).
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.client import RetryPolicy, ServiceClient
from repro.engine.cluster import ShardRouter
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob

REPO_ROOT = Path(__file__).resolve().parents[2]

TOKEN = "integration-secret"

SMALL = dict(n_uops=2000, warmup=1000)

# Two overlapping 24-job grids (2 predictors x 12 workloads each,
# sharing the '2dstride' row => 12 overlapping jobs).
WORKLOADS = ("gzip", "wupwise", "applu", "vpr", "art", "crafty", "parser",
             "vortex", "bzip2", "gcc", "gamess", "mcf")
GRID_A = [SimJob.make(w, p, **SMALL)
          for p in ("lvp", "2dstride") for w in WORKLOADS]
GRID_B = [SimJob.make(w, p, **SMALL)
          for p in ("2dstride", "vtage") for w in WORKLOADS]


def _spawn_shard(*extra_args, cache_dir=None, jobs="1", shm=True):
    """Start ``repro cluster serve`` on a kernel-picked port; returns
    ``(process, tcp_address)`` parsed from the daemon's ready line.

    *cache_dir* is the shard's ``$REPRO_CACHE_DIR`` (``None``: memory
    only); shards given the same directory share every published result.
    ``shm=False`` disables the shared-memory trace plane for shards a
    test will ``SIGKILL``: a -9 daemon cannot unlink its segments, and
    leaked ``/dev/shm`` entries would fail the shm hermeticity tests
    later in the same suite run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    env["REPRO_SERVICE_TOKEN"] = TOKEN
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    if not shm:
        env["REPRO_SHM"] = "0"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "-j", jobs, "cluster", "serve",
         "--listen", "127.0.0.1:0", *map(str, extra_args)],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stderr.readline()
        match = re.search(r"listen=(tcp://\S+)", line)
        assert match, f"no ready line from shard: {line!r}"
        return proc, match.group(1)
    except Exception:
        proc.kill()
        raise


def _local_results(jobs):
    engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
    return engine.run_jobs(jobs)


@pytest.fixture(scope="module")
def expected():
    """Local fault-free answers for both grids, computed once."""
    return {"A": _local_results(GRID_A), "B": _local_results(GRID_B)}


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """Two 1-worker TCP shards sharing a result cache directory,
    gossiping with each other, token-authed."""
    results = tmp_path_factory.mktemp("results")
    proc_a, addr_a = _spawn_shard(cache_dir=results)
    proc_b, addr_b = _spawn_shard("--peer", addr_a, cache_dir=results)
    yield [addr_a, addr_b]
    for proc, addr in ((proc_a, addr_a), (proc_b, addr_b)):
        try:
            with ServiceClient(addr, timeout=5.0, token=TOKEN) as client:
                client.shutdown()
            proc.wait(timeout=15)
        except Exception:
            proc.kill()


class TestClusterRoundTrip:
    def test_two_concurrent_clients_bit_identical(self, cluster, expected):
        outcomes = {}

        def client(name, grid):
            router = ShardRouter(cluster, token=TOKEN)
            try:
                outcomes[name] = router.run_jobs(grid)
            finally:
                router.close()

        threads = [threading.Thread(target=client, args=("A", GRID_A)),
                   threading.Thread(target=client, args=("B", GRID_B))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for name in ("A", "B"):
            assert [r.to_dict() for r in outcomes[name]] == \
                [r.to_dict() for r in expected[name]], \
                f"client {name} diverged from the local engine"

        # Both shards did real work (the ring spread the key space), and
        # the overlapping row simulated exactly once cluster-wide.
        router = ShardRouter(cluster, token=TOKEN)
        status = router.status()
        router.close()
        executed = [row["metrics"]["queue"]["stats"]["executed"]
                    for row in status["shards"]]
        unique = len({j.content_key() for j in GRID_A + GRID_B})
        assert all(n > 0 for n in executed)
        assert sum(executed) == unique

    def test_auth_is_enforced_end_to_end(self, cluster):
        from repro.engine.client import ServiceAuthError

        with pytest.raises(ServiceAuthError):
            ServiceClient(cluster[0], token="wrong").ping()

    def test_peer_federation_avoids_resimulation(self, cluster):
        # By round-trip time every GRID_A result was published to the
        # shared cache directory by the shard that owns it.  Submitting
        # the full grid directly to shard B (bypassing the router) must
        # answer every key from that directory — shard A's half too —
        # and never re-enter the worker pool.
        with ServiceClient(cluster[1], token=TOKEN) as client:
            executed_before = client.metrics()["queue"]["stats"]["executed"]
            response = client.submit(GRID_A)
            metrics = client.metrics()
        assert response["summary"]["enqueued"] == 0
        assert response["summary"]["cache_hits"] == len(GRID_A)
        assert metrics["queue"]["stats"]["executed"] == executed_before

    def test_cluster_status_cli_reports_depth_and_cache(self, cluster):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"),
                        env.get("PYTHONPATH", "")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster", "status",
             "--shards", ",".join(cluster), "--token", TOKEN],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "2/2 shard(s) alive" in proc.stdout
        for address in cluster:
            assert f"shard {address}:" in proc.stdout
        assert re.search(r"queue: \d+ deep", proc.stdout)
        assert re.search(r"cache: \d+ hit\(s\) / \d+ miss\(es\)",
                         proc.stdout)


class TestClusterFailover:
    def test_sigkill_one_shard_mid_grid_loses_nothing(self, expected):
        """The headline resilience claim: -9 a shard while its workers
        are busy; the grid still completes bit-identically."""
        proc_a, addr_a = _spawn_shard(shm=False)
        proc_b, addr_b = _spawn_shard(shm=False)
        killed = False
        try:
            router = ShardRouter(
                [addr_a, addr_b], token=TOKEN,
                retry=RetryPolicy(attempts=2, base=0.05))
            outcome = {}

            def run():
                outcome["results"] = router.run_jobs(GRID_A)

            thread = threading.Thread(target=run)
            thread.start()
            # Kill shard A once it demonstrably holds in-flight work, so
            # the kill lands mid-grid rather than before or after it.
            with ServiceClient(addr_a, timeout=10.0, token=TOKEN) as probe:
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    busy = probe.metrics()["queue"]["in_flight"]
                    if busy > 0:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("shard A never went busy")
            proc_a.send_signal(signal.SIGKILL)
            proc_a.wait(timeout=15)
            killed = True
            thread.join(timeout=300)
            assert not thread.is_alive(), "cluster batch hung after kill"

            assert [r.to_dict() for r in outcome["results"]] == \
                [r.to_dict() for r in expected["A"]]
            assert addr_a in router.down
            assert router.stats["failovers"] == 1
            assert router.stats["rerouted_jobs"] > 0
            # No job lost: the survivor executed the whole key space.
            with ServiceClient(addr_b, timeout=10.0, token=TOKEN) as client:
                stats = client.metrics()["queue"]["stats"]
            assert stats["executed"] + stats["cache_hits"] >= \
                len({j.content_key() for j in GRID_A})
            router.close()
        finally:
            if not killed:
                proc_a.kill()
            try:
                with ServiceClient(addr_b, timeout=5.0,
                                   token=TOKEN) as client:
                    client.shutdown()
                proc_b.wait(timeout=15)
            except Exception:
                proc_b.kill()


_EXPECTED_A: list | None = None


def expected_grid_a():
    """Serial fault-free GRID_A answers, computed once per process."""
    global _EXPECTED_A
    if _EXPECTED_A is None:
        _EXPECTED_A = _local_results(GRID_A)
    return _EXPECTED_A


class TestSelfHealing:
    """A -9'd shard restarts, is auto re-admitted with no router restart,
    and the work it published is never re-simulated."""

    @staticmethod
    def _knobs(tmp_path, name):
        """Shard *name*'s flags: its own journal (a revival reopens it,
        so epoch and startup replay carry over) and a 0.25 s gossip."""
        return ("--journal", tmp_path / f"{name}.journal",
                "--heartbeat-interval", "0.25")

    def _fleet(self, tmp_path):
        """Two shards with their own journals sharing one result cache
        directory, gossiping at 0.25 s."""
        results = tmp_path / "results"
        proc_a, addr_a = _spawn_shard(*self._knobs(tmp_path, "a"),
                                      shm=False, cache_dir=results)
        proc_b, addr_b = _spawn_shard("--peer", addr_a,
                                      *self._knobs(tmp_path, "b"),
                                      shm=False, cache_dir=results)
        return proc_a, addr_a, proc_b, addr_b

    def _stop(self, proc, addr):
        try:
            with ServiceClient(addr, timeout=5.0, token=TOKEN) as client:
                client.shutdown()
            proc.wait(timeout=15)
        except Exception:
            proc.kill()

    def test_killed_shard_restarts_and_is_readmitted_without_router_restart(
            self, tmp_path):
        proc_a, addr_a, proc_b, addr_b = self._fleet(tmp_path)
        revived = None
        a_dead = False
        router = ShardRouter([addr_a, addr_b], token=TOKEN,
                             retry=RetryPolicy(attempts=2, base=0.05),
                             probe_base=0.2, probe_cap=1.0)
        try:
            outcome = {}

            def run():
                outcome["results"] = router.run_jobs(GRID_A)

            thread = threading.Thread(target=run)
            thread.start()
            # Kill once A has journaled at least one completion (so the
            # revival has something to startup-replay) but is still
            # mid-grid (more work in flight).
            with ServiceClient(addr_a, timeout=10.0, token=TOKEN) as probe:
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    stats = probe.metrics()["queue"]
                    if stats["stats"]["executed"] >= 1:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("shard A never completed a job")
            proc_a.send_signal(signal.SIGKILL)
            proc_a.wait(timeout=15)
            a_dead = True
            thread.join(timeout=300)
            assert not thread.is_alive(), "cluster batch hung after kill"
            assert [r.to_dict() for r in outcome["results"]] == \
                [r.to_dict() for r in expected_grid_a()]
            assert addr_a in router.down

            # Revive A on its old port, same journal: its epoch meta
            # makes the new incarnation supersede its own death notice.
            port = addr_a.rsplit(":", 1)[1]
            for attempt in range(10):
                try:
                    revived = _spawn_shard(
                        "--listen", f"127.0.0.1:{port}", "--peer", addr_b,
                        *self._knobs(tmp_path, "a"), shm=False,
                        cache_dir=tmp_path / "results")
                    break
                except AssertionError:
                    time.sleep(0.5)
            assert revived is not None, "could not rebind the old port"
            assert revived[1] == addr_a

            # The same router object heals: gossip zeroes the probe
            # timer, the half-open probe re-admits.  No restart, no
            # manual readmit() call.
            deadline = time.monotonic() + 60
            while addr_a in router.down and time.monotonic() < deadline:
                router.refresh_membership()
                router.maybe_probe()
                time.sleep(0.05)
            assert addr_a not in router.down, "shard never re-admitted"
            assert router.stats["readmissions"] >= 1
            assert router.stats["probes"] >= 1

            rerun = router.run_jobs(GRID_A)
            assert [r.to_dict() for r in rerun] == \
                [r.to_dict() for r in expected_grid_a()]
            with ServiceClient(addr_a, timeout=10.0, token=TOKEN) as client:
                metrics = client.metrics()
            # Restarted incarnation: epoch bumped past the first life,
            # and its startup replay let it answer from cache.
            assert metrics["membership"]["epoch"] >= 2
            assert metrics["replay"]["startup_replayed"] > 0
            assert metrics["queue"]["stats"]["cache_hits"] > 0
            router.close()
        finally:
            if not a_dead:
                proc_a.kill()
            if revived is not None:
                self._stop(*revived)
            self._stop(proc_b, addr_b)

    def test_journal_replay_keeps_prekill_results_out_of_resimulation(
            self, tmp_path):
        """Everything shard A published before its SIGKILL stays out of
        re-simulation: B reads it from the shared cache directory."""
        proc_a, addr_a, proc_b, addr_b = self._fleet(tmp_path)
        a_dead = False
        router = ShardRouter([addr_a, addr_b], token=TOKEN,
                             retry=RetryPolicy(attempts=2, base=0.05),
                             probe_base=0.2, probe_cap=1.0)
        try:
            first = router.run_jobs(GRID_A)
            assert [r.to_dict() for r in first] == \
                [r.to_dict() for r in expected_grid_a()]
            with ServiceClient(addr_b, timeout=10.0, token=TOKEN) as client:
                executed_before = \
                    client.metrics()["queue"]["stats"]["executed"]

            proc_a.send_signal(signal.SIGKILL)
            proc_a.wait(timeout=15)
            a_dead = True

            # Re-running the grid costs zero simulations: the router
            # fails A's keys over to B, which reads every one of them
            # from the shared cache directory.
            rerun = router.run_jobs(GRID_A)
            assert [r.to_dict() for r in rerun] == \
                [r.to_dict() for r in expected_grid_a()]
            with ServiceClient(addr_b, timeout=10.0, token=TOKEN) as client:
                executed_after = \
                    client.metrics()["queue"]["stats"]["executed"]
            assert executed_after == executed_before, \
                "published pre-kill results were re-simulated"
            assert router.stats["failovers"] == 1
            router.close()
        finally:
            if not a_dead:
                proc_a.kill()
            self._stop(proc_b, addr_b)
