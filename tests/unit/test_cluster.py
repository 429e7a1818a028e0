"""Unit tests for the cluster plane: router, executor, TCP daemons.

These run everything *in-process* — shards are
:class:`~repro.engine.service.SimService` instances on background
threads (real TCP sockets, real spawn workers), the router is driven
directly — so the ``repro.engine.cluster`` line coverage the CI floor
demands comes from here, not from the subprocess-based integration
harness (a child process's execution is invisible to coverage).
"""

import asyncio
import threading
import time

import pytest

from repro.engine import faults
from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.client import (
    RetryPolicy,
    ServiceAuthError,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    wait_for_service,
)
from repro.engine.cluster import (
    ClusterExecutor,
    HashRing,
    ShardRouter,
    cluster_engine,
    resolve_shards,
)
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob
from repro.engine.service import SimService, parse_address, parse_listen

SMALL = dict(n_uops=2000, warmup=1000)

JOBS = [SimJob.make(w, p, **SMALL)
        for p in ("lvp", "2dstride") for w in ("gzip", "gcc", "crafty")]


@pytest.fixture(scope="module")
def expected():
    """The local fault-free answer the cluster must match bit-for-bit."""
    engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
    return engine.run_jobs(JOBS)


class TcpShard:
    """One in-process cluster shard on a background thread."""

    def __init__(self, **kwargs):
        kwargs.setdefault("listen", "127.0.0.1:0")
        kwargs.setdefault("workers", 1)
        self.service = SimService(**kwargs)
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.error = None

    def _run(self):
        try:
            asyncio.run(self.service.serve_until_shutdown())
        except BaseException as exc:  # noqa: BLE001 - surfaced on enter
            self.error = exc

    @property
    def address(self):
        return self.service.listen_address

    def __enter__(self):
        self.thread.start()
        deadline = 60
        while self.service.listen_address is None and deadline:
            if self.error is not None:
                raise self.error
            threading.Event().wait(0.02)
            deadline -= 0.02
        wait_for_service(self.address, timeout=60,
                         token=self.service.token)
        return self

    def __exit__(self, *exc):
        try:
            with ServiceClient(self.address, timeout=10.0,
                               token=self.service.token) as client:
                client.shutdown()
        except ServiceError:
            pass
        self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "shard failed to shut down"


class TestTcpTransport:
    def test_ping_reports_tcp_identity_and_protocol(self):
        with TcpShard() as shard:
            with ServiceClient(shard.address) as client:
                server = client.ping()
        assert server["transport"] == "tcp"
        assert server["address"].startswith("tcp://127.0.0.1:")
        assert server["auth"] is False

    def test_round_trip_matches_local_run(self, expected):
        with TcpShard() as shard:
            with ServiceClient(shard.address) as client:
                results = client.run_jobs(JOBS)
        assert results == expected

    def test_bad_token_is_a_typed_auth_error(self):
        with TcpShard(token="secret") as shard:
            with pytest.raises(ServiceAuthError):
                ServiceClient(shard.address, token="wrong").ping()
            with pytest.raises(ServiceAuthError):
                ServiceClient(shard.address).ping()  # missing entirely
            with ServiceClient(shard.address, token="secret") as client:
                assert client.ping()["auth"] is True

    def test_parse_address_and_listen(self):
        assert parse_address("tcp://h:70") == ("tcp", "h", 70)
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        with pytest.raises(ValueError):
            parse_address("tcp://no-port")
        assert parse_listen("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_listen("tcp://h:9") == ("h", 9)
        with pytest.raises(ValueError):
            parse_listen("9999")  # no host separator

    def test_metrics_op_shape(self):
        with TcpShard() as shard:
            with ServiceClient(shard.address) as client:
                client.run_jobs(JOBS[:2])
                metrics = client.metrics()
        assert metrics["shard"]["workers"] == 1
        assert metrics["queue"]["depth"] == 0
        assert metrics["cache"]["misses"] == 2
        assert metrics["cache"]["memory_entries"] == 2
        assert metrics["replay"] == {"startup_replayed": 0}


class TestPeerFederation:
    def test_miss_is_filled_from_peer_cache(self, expected, tmp_path):
        # Shards share one result cache directory and nothing else: a
        # result the upstream shard published is a downstream cache hit.
        with TcpShard(cache=ResultCache(tmp_path)) as upstream:
            with ServiceClient(upstream.address) as client:
                client.run_jobs(JOBS)
        with TcpShard(cache=ResultCache(tmp_path)) as downstream:
            with ServiceClient(downstream.address) as client:
                response = client.submit(JOBS)
                metrics = client.metrics()
        assert response["summary"]["enqueued"] == 0
        assert response["summary"]["cache_hits"] == len(JOBS)
        assert response["results"] == [r.to_dict() for r in expected]
        assert metrics["queue"]["stats"]["executed"] == 0

    def test_dead_peer_fails_open(self, expected):
        with TcpShard(peers=["tcp://127.0.0.1:9"],  # discard port
                      heartbeat_interval=0.1) as shard:
            with ServiceClient(shard.address) as client:
                results = client.run_jobs(JOBS[:2])
            deadline = time.monotonic() + 30
            while shard.service.gossip_failures == 0:
                assert time.monotonic() < deadline, "no heartbeat failed"
                time.sleep(0.05)
        assert results == expected[:2]


class TestShardRouter:
    def test_batch_is_bit_identical_and_routed_by_the_ring(self, expected):
        with TcpShard() as a, TcpShard() as b:
            router = ShardRouter([a.address, b.address])
            results = router.run_jobs(JOBS)
            groups = router.route(JOBS)
            status = router.status()
            router.close()
        assert results == expected
        assert sum(len(g) for g in groups.values()) == len(JOBS)
        # Execution landed exactly where the ring said it would, and no
        # key simulated twice cluster-wide.  (With only 6 keys the ring
        # may legitimately give one shard nothing — the guaranteed-
        # spread claim lives in the 36-key integration grid.)
        executed = {row["address"]: row["metrics"]["queue"]["stats"]["executed"]
                    for row in status["shards"]}
        assert executed == {shard: len(groups.get(shard, ()))
                            for shard in executed}
        assert sum(executed.values()) == len(JOBS)

    def test_duplicate_specs_submit_once_and_fan_out(self):
        with TcpShard() as a:
            router = ShardRouter([a.address])
            twice = [JOBS[0], JOBS[0]]
            results = router.run_jobs(twice)
            metrics = router.client(a.address).metrics()
            router.close()
        assert results[0] == results[1]
        assert metrics["queue"]["stats"]["executed"] == 1

    def test_dead_shard_fails_over_with_no_lost_jobs(self, expected):
        with TcpShard() as alive:
            router = ShardRouter(
                [alive.address, "tcp://127.0.0.1:9"],
                retry=RetryPolicy(attempts=2, base=0.01))
            results = router.run_jobs(JOBS)
            down = router.down
            status = router.status()
            router.close()
        assert results == expected
        assert list(down) == ["tcp://127.0.0.1:9"]
        assert router.stats["failovers"] == 1
        assert router.stats["rerouted_jobs"] >= 0
        assert any(row["down"] for row in status["shards"])

    def test_all_shards_down_is_a_typed_error(self):
        router = ShardRouter(["tcp://127.0.0.1:9", "tcp://127.0.0.1:10"],
                             retry=RetryPolicy(attempts=1))
        with pytest.raises(ServiceUnavailable, match="all 2"):
            router.run_jobs(JOBS[:2])

    def test_empty_batch_and_context_manager(self):
        with ShardRouter(["tcp://127.0.0.1:9"]) as router:
            assert router.run_jobs([]) == []

    def test_job_level_failure_propagates_not_failsover(self):
        bad = SimJob(workload="gzip", predictor="no-such-predictor",
                     n_uops=500, warmup=0)
        with TcpShard() as a:
            router = ShardRouter([a.address])
            with pytest.raises(ServiceError, match="job failed"):
                router.run_jobs([bad])
            assert not router.down  # the shard is fine; the job is not
            router.close()

    def test_resolve_shards_env_and_normalisation(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_SHARDS",
                           "127.0.0.1:7001, 127.0.0.1:7002")
        assert resolve_shards() == ["tcp://127.0.0.1:7001",
                                    "tcp://127.0.0.1:7002"]
        assert resolve_shards(["h:1"]) == ["tcp://h:1"]
        with pytest.raises(ServiceUnavailable, match="no cluster shards"):
            monkeypatch.setenv("REPRO_CLUSTER_SHARDS", "")
            ShardRouter()

    def test_status_reports_unreachable_shards_without_failing(self):
        router = ShardRouter(["tcp://127.0.0.1:9"])
        status = router.status(probe_timeout=0.5)
        [row] = status["shards"]
        assert row["down"] is False and "unreachable" in row

    def test_router_shutdown_stops_shards(self):
        shard = TcpShard().__enter__()
        try:
            router = ShardRouter([shard.address])
            acked = router.shutdown()
            assert acked == {shard.address: True}
        finally:
            shard.thread.join(timeout=60)
            assert not shard.thread.is_alive()


class TestClusterExecutor:
    def test_engine_over_cluster_matches_local(self, expected):
        with TcpShard() as a, TcpShard() as b:
            engine = cluster_engine([a.address, b.address])
            assert engine.executor.jobs == 2  # summed shard workers
            assert "cluster(2 shards" in engine.executor.describe()
            results = engine.run_jobs(JOBS)
        assert results == expected

    def test_unreachable_shard_is_dropped_at_construction(self):
        with TcpShard() as a:
            router = ShardRouter([a.address, "tcp://127.0.0.1:9"],
                                 retry=RetryPolicy(attempts=1))
            executor = ClusterExecutor(router)
            assert executor.jobs == 1
            assert router.down
            assert executor.run([]) == []
            router.close()

    def test_all_unreachable_raises(self):
        router = ShardRouter(["tcp://127.0.0.1:9"],
                             retry=RetryPolicy(attempts=1))
        with pytest.raises(ServiceUnavailable):
            ClusterExecutor(router)


class TestRouteFaults:
    """The ``cluster.route`` chaos site, driven in-process.

    (The chaos suite has the full shard-level fault matrix; these two
    live here so the router's fault branches count toward the module's
    coverage floor.)
    """

    @pytest.fixture(autouse=True)
    def clean_fault_state(self):
        faults.reset()
        yield
        faults.install_plan(None, export_env=True)
        faults.reset()

    def test_misroute_lands_on_a_live_shard_bit_identically(self, expected):
        with TcpShard() as a, TcpShard() as b:
            router = ShardRouter([a.address, b.address])
            faults.install_plan("cluster.route:misroute@every=1", seed=0)
            results = router.run_jobs(JOBS)
            router.close()
        assert results == expected  # correctness must not care where
        assert router.stats["misrouted_jobs"] == len(JOBS)
        assert not router.down

    def test_drop_forces_rebalance_without_killing_anything(self, expected):
        with TcpShard() as a, TcpShard() as b:
            router = ShardRouter([a.address, b.address])
            faults.install_plan("cluster.route:drop@1", seed=0)
            results = router.run_jobs(JOBS)
            router.close()
        assert results == expected
        assert len(router.down) == 1
        assert router.stats["failovers"] == 1


class TestRingEdgeCases:
    def test_empty_ring_raises_and_prefs_empty(self):
        ring = HashRing([])
        with pytest.raises(ServiceUnavailable):
            ring.shard_for("key")
        assert ring.preference("key") == []

    def test_add_remove_idempotent(self):
        ring = HashRing(["tcp://a:1"])
        ring.add("tcp://a:1")
        assert len(ring) == 1
        ring.remove("tcp://zzz:9")
        assert len(ring) == 1
