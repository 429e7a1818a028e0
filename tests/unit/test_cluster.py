"""Unit tests for the cluster plane: router, executor, TCP daemons.

These run everything *in-process* — shards are
:class:`~repro.engine.service.SimService` instances on background
threads (``tests/conftest.py``'s ``daemon`` helper: real TCP sockets,
real worker processes), the router is driven
directly — so the ``repro.engine.cluster`` line coverage the CI floor
demands comes from here, not from the subprocess-based integration
harness (a child process's execution is invisible to coverage).
"""

import json
import threading

import pytest

from repro.cli import main as cli_main
from repro.engine import faults
from repro.engine.api import Engine, reset_default_engine
from repro.engine.cache import ResultCache
from repro.engine.campaign import engine_for_backend
from repro.engine.client import (
    ADDRESS_FILE,
    RetryPolicy,
    ServiceAuthError,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    parse_address,
    resolve_service,
)
from repro.engine.cluster import (
    HashRing,
    ShardRouter,
    cluster_engine,
)
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob
from repro.engine.service import PROTOCOL_VERSION
from repro.pipeline.config import CoreConfig

SMALL = dict(n_uops=2000, warmup=1000)

JOBS = [SimJob.make(w, p, **SMALL)
        for p in ("lvp", "2dstride") for w in ("gzip", "gcc", "crafty")]


@pytest.fixture(scope="module")
def expected():
    """The local fault-free answer the cluster must match bit-for-bit."""
    engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
    return engine.run_jobs(JOBS)


class TestTcpTransport:
    def test_ping_reports_tcp_identity_and_protocol(self, daemon):
        with daemon() as shard:
            with ServiceClient(shard.address) as client:
                server = client.ping()
        assert server["address"] == shard.address
        assert server["address"].startswith("tcp://127.0.0.1:")
        assert server["protocol"] == PROTOCOL_VERSION == 8
        # v7: one transport and auth always on, so neither is reported.
        assert "transport" not in server and "auth" not in server

    def test_round_trip_matches_local_run(self, daemon, expected):
        with daemon() as shard:
            with ServiceClient(shard.address) as client:
                results = client.run_jobs(JOBS)
        assert results == expected

    def test_bad_token_is_a_typed_auth_error(self, daemon, monkeypatch,
                                             tmp_path):
        with daemon(token="secret") as shard:
            with ServiceClient(shard.address, token="wrong") as client:
                with pytest.raises(ServiceAuthError):
                    client.ping()
            # No flag, no environment, no address file: no token at all.
            monkeypatch.delenv("REPRO_SERVICE_TOKEN")
            monkeypatch.chdir(tmp_path)
            with ServiceClient(shard.address) as client:
                with pytest.raises(ServiceAuthError):
                    client.ping()
            with ServiceClient(shard.address, token="secret") as client:
                assert client.ping()["address"] == shard.address

    def test_parse_address_and_listen(self):
        # One parser for client targets, shard lists and --listen binds.
        assert parse_address("tcp://h:70") == ("h", 70)
        assert parse_address("h:70") == ("h", 70)
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
        for bad in ("tcp://no-port", "/tmp/x.sock", "9999", ":9"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_metrics_op_shape(self, daemon):
        with daemon() as shard:
            with ServiceClient(shard.address) as client:
                client.run_jobs(JOBS[:2])
                metrics = client.metrics()
        assert metrics["shard"]["workers"] == 1
        assert metrics["queue"]["depth"] == 0
        [worker] = metrics["queue"]["workers"]
        assert worker["alive"] and worker["task"] is None
        assert metrics["queue"]["job_timeout"] is None
        assert metrics["cache"]["misses"] == 2
        assert metrics["cache"]["memory_entries"] == 2
        assert metrics["cache"]["directory"] is None
        for gone in ("replay", "membership", "fallbacks", "tickets"):
            assert gone not in metrics
        assert "disk_entries" not in metrics["cache"]

    def test_metrics_never_reads_the_cache_directory(self, daemon, tmp_path,
                                                     monkeypatch):
        def glob_refused(self):
            raise AssertionError("metrics globbed the cache directory")

        monkeypatch.setattr(ResultCache, "disk_entries", glob_refused)
        with daemon(cache=ResultCache(tmp_path)) as shard:
            with ServiceClient(shard.address) as client:
                client.run_jobs(JOBS[:1])
                metrics = client.metrics()
        assert metrics["cache"]["directory"] == str(tmp_path)
        assert metrics["cache"]["stores"] == 1

    def test_only_the_five_ops_are_served(self, daemon):
        with daemon() as shard:
            with ServiceClient(shard.address) as client:
                for op in ("status", "health", "results"):
                    with pytest.raises(ServiceError,
                                       match=f"unknown op '{op}'"):
                        client.request({"op": op})
                # A leftover "wait" field changes nothing: submit waits.
                response = client.request(
                    {"op": "submit", "jobs": [JOBS[0].to_dict()],
                     "wait": False})
        assert len(response["results"]) == 1
        assert "ticket" not in response

    def test_service_status_names_the_tcp_address(self, daemon, capsys):
        with daemon() as shard:
            assert cli_main(["cluster", "status",
                             "--shards", shard.address]) == 0
        out = capsys.readouterr().out
        assert shard.address.startswith("tcp://")
        assert f"shard {shard.address}: ok — pid " in out


class TestPeerFederation:
    def test_miss_is_filled_from_peer_cache(self, daemon, expected, tmp_path):
        # Shards share one result cache directory and nothing else: a
        # result the upstream shard published is a downstream cache hit.
        with daemon(cache=ResultCache(tmp_path)) as upstream:
            with ServiceClient(upstream.address) as client:
                client.run_jobs(JOBS)
        with daemon(cache=ResultCache(tmp_path)) as downstream:
            with ServiceClient(downstream.address) as client:
                response = client.submit(JOBS)
                metrics = client.metrics()
        assert response["summary"]["enqueued"] == 0
        assert response["summary"]["cache_hits"] == len(JOBS)
        assert response["results"] == [r.to_dict() for r in expected]
        assert metrics["queue"]["stats"]["executed"] == 0


class TestShardRouter:
    def test_batch_is_bit_identical_and_routed_by_the_ring(self, daemon,
                                                           expected):
        with daemon() as a, daemon() as b:
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

    def test_duplicate_specs_submit_once_and_fan_out(self, daemon):
        with daemon() as a:
            router = ShardRouter([a.address])
            twice = [JOBS[0], JOBS[0]]
            results = router.run_jobs(twice)
            metrics = router.client(a.address).metrics()
            router.close()
        assert results[0] == results[1]
        assert metrics["queue"]["stats"]["executed"] == 1

    def test_one_shard_round_runs_on_the_callers_thread(self, daemon,
                                                        expected,
                                                        monkeypatch):
        threads = []
        run_group = ShardRouter._run_group

        def recording(router, shard, group):
            threads.append(threading.get_ident())
            return run_group(router, shard, group)

        monkeypatch.setattr(ShardRouter, "_run_group", recording)
        with daemon() as a:
            router = ShardRouter([a.address])
            results = router.run_jobs(JOBS)
            router.close()
        assert results == expected
        assert threads == [threading.get_ident()]

    def test_dead_shard_fails_over_with_no_lost_jobs(self, daemon, expected):
        with daemon() as alive:
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

    def test_job_level_failure_propagates_not_failsover(self, daemon):
        bad = SimJob(workload="gzip", predictor="no-such-predictor",
                     n_uops=500, warmup=0)
        with daemon() as a:
            router = ShardRouter([a.address])
            with pytest.raises(ServiceError, match="job failed"):
                router.run_jobs([bad])
            assert not router.down  # the shard is fine; the job is not
            router.close()

    def test_invalid_core_config_is_answered_with_an_error(self, daemon):
        # A config no core could run (a load pool of no units) is refused
        # where the worker rebuilds it with CoreConfig.from_dict: the
        # shard answers with an error, never a result.
        config = json.loads(CoreConfig().canonical_json())
        config["fu"]["LOAD"]["units"] = 0
        bad = SimJob(workload="gzip", predictor="lvp", n_uops=500, warmup=0,
                     config_json=json.dumps(config, sort_keys=True))
        with daemon() as a:
            router = ShardRouter([a.address])
            with pytest.raises(ServiceError, match="units >= 1"):
                router.run_jobs([bad])
            assert not router.down
            router.close()

    def test_resolve_shards_env_and_normalisation(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.chdir(tmp_path)  # no address file to fall back on
        monkeypatch.setenv("REPRO_CLUSTER_SHARDS",
                           "127.0.0.1:7001, 127.0.0.1:7002")
        assert resolve_service() == (["tcp://127.0.0.1:7001",
                                      "tcp://127.0.0.1:7002"],
                                     "test-suite-token")
        assert resolve_service(["h:1"], "t") == (["tcp://h:1"], "t")
        with pytest.raises(ServiceError, match="REPRO_CLUSTER_SHARDS"):
            monkeypatch.setenv("REPRO_CLUSTER_SHARDS", "h:1,no-port")
            resolve_service()
        with pytest.raises(ServiceUnavailable, match="no cluster shards"):
            monkeypatch.setenv("REPRO_CLUSTER_SHARDS", "")
            ShardRouter()
        # The address file is the last resort, for addresses and token.
        (tmp_path / ADDRESS_FILE).write_text(
            '{"address": "tcp://h:2", "token": "from-file"}')
        monkeypatch.delenv("REPRO_SERVICE_TOKEN")
        assert resolve_service() == (["tcp://h:2"], "from-file")
        assert resolve_service(["h:1"]) == (["tcp://h:1"], "from-file")
        assert resolve_service(None, "t") == (["tcp://h:2"], "t")

    def test_status_reports_unreachable_shards_without_failing(self):
        router = ShardRouter(["tcp://127.0.0.1:9"])
        status = router.status(probe_timeout=0.5)
        [row] = status["shards"]
        assert row["down"] is False and "unreachable" in row
        assert row["state"] == "down"

    def test_cluster_status_prints_no_router_line(self, capsys):
        """A router built for one status call has routed nothing, so its
        counters are not shown."""
        assert cli_main(["cluster", "status",
                         "--shards", "tcp://127.0.0.1:9"]) == 2
        out = capsys.readouterr().out
        assert "shard tcp://127.0.0.1:9: DOWN" in out
        assert "router:" not in out

    def test_cluster_status_exits_2_with_a_shard_down(self, daemon, capsys):
        with daemon() as shard:
            assert cli_main(["cluster", "status", "--shards",
                             f"{shard.address},tcp://127.0.0.1:9"]) == 2
        out = capsys.readouterr().out
        assert f"shard {shard.address}: ok" in out
        assert "shard tcp://127.0.0.1:9: DOWN — unreachable" in out

    def test_router_shutdown_stops_shards(self, daemon):
        shard = daemon().start()
        try:
            with ShardRouter([shard.address]) as router:
                acked = router.shutdown()
            assert acked == {shard.address: True}
        finally:
            shard.thread.join(timeout=60)
            assert not shard.thread.is_alive()


class TestClusterExecutor:
    def test_engine_over_cluster_matches_local(self, daemon, expected,
                                               monkeypatch, tmp_path):
        """Each shard group's results land in the client's cache (the
        ``$REPRO_CACHE_DIR`` one, as locally), on the caller's thread,
        before they are reported."""
        reported = []

        def on_result(i, result):
            assert cache.get(JOBS[i]) == result
            reported.append((i, threading.get_ident()))

        with daemon() as a, daemon() as b:
            # Set only once the daemons hold their own (memory) caches.
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
            reset_default_engine()
            try:
                engine = cluster_engine([a.address, b.address])
            finally:
                monkeypatch.delenv("REPRO_CACHE_DIR")
                reset_default_engine()
            cache = engine.cache
            assert cache.directory == tmp_path
            assert engine.executor.describe() == "cluster(2 shards)"
            with engine.executor.router:
                results = engine.run_jobs(JOBS, on_result)
        assert results == expected
        assert sorted(i for i, _ in reported) == list(range(len(JOBS)))
        assert {thread for _, thread in reported} == {threading.get_ident()}
        assert len(cache.disk_entries()) == len(JOBS)

    def test_construction_contacts_no_shard(self, monkeypatch, tmp_path):
        """An all-down cluster raises on the first batch, and the client's
        cache follows ``$REPRO_CACHE_DIR`` as a local engine's does."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_engine()
        try:
            engine = engine_for_backend("cluster",
                                        shards=["tcp://127.0.0.1:9"])
        finally:
            monkeypatch.delenv("REPRO_CACHE_DIR")
            reset_default_engine()
        engine.executor.router.retry = RetryPolicy(attempts=1)
        assert engine.cache.directory == tmp_path
        assert engine.run_jobs([]) == []
        with pytest.raises(ServiceUnavailable, match="all 1"):
            engine.run_jobs(JOBS[:1])


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

    def test_misroute_lands_on_a_live_shard_bit_identically(self, daemon,
                                                            expected):
        with daemon() as a, daemon() as b:
            router = ShardRouter([a.address, b.address])
            faults.install_plan("cluster.route:misroute@every=1", seed=0)
            results = router.run_jobs(JOBS)
            router.close()
        assert results == expected  # correctness must not care where
        assert router.stats["misrouted_jobs"] == len(JOBS)
        assert not router.down

    def test_drop_forces_rebalance_without_killing_anything(self, daemon,
                                                            expected):
        with daemon() as a, daemon() as b:
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
