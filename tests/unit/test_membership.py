"""Unit tests for self-healing membership: gossip, probation, epochs.

In-process shards (real TCP sockets, background threads — the same
harness as ``test_cluster.py``) drive the new planes end to end:

* the ``gossip`` op merges views and answers with epochs;
* router down-marking is probation with exponentially backed-off
  half-open probes, not a death sentence — a revived shard is
  re-admitted automatically, and ``refresh_membership`` grows the ring
  from the gossiped view;
* a restarted shard's epoch, persisted in its epoch file, supersedes its
  own death notice; a file that is not an epoch stops startup.
"""

import asyncio
import threading
import time

import pytest

from repro.engine import faults
from repro.engine.client import (
    ServiceClient,
    ServiceError,
    wait_for_service,
)
from repro.engine.cluster import (
    MemberState,
    MembershipView,
    ShardRouter,
    probe_backoff,
)
from repro.engine.service import SimService, resolve_heartbeat_interval


@pytest.fixture(autouse=True)
def clean_fault_state():
    faults.reset()
    yield
    faults.install_plan(None, export_env=True)
    faults.reset()


class TcpShard:
    """One in-process cluster shard on a background thread."""

    def __init__(self, **kwargs):
        kwargs.setdefault("listen", "127.0.0.1:0")
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("heartbeat_interval", 0)  # explicit per test
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
        while self.service.listen_address is None:
            if self.error is not None:
                raise self.error
            threading.Event().wait(0.02)
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


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out: {message}"
        time.sleep(0.05)


class TestMemberState:
    def test_supersedes_orders_by_version_then_down(self):
        base = MemberState("a", epoch=1, beat=3, status="up")
        assert MemberState("a", 2, 0, "up").supersedes(base)
        assert MemberState("a", 1, 4, "up").supersedes(base)
        assert not MemberState("a", 1, 2, "up").supersedes(base)
        # Same version: down wins, up does not re-win.
        assert MemberState("a", 1, 3, "down").supersedes(base)
        down = MemberState("a", 1, 3, "down")
        assert not MemberState("a", 1, 3, "up").supersedes(down)
        assert base.supersedes(None)

    def test_wire_round_trip_and_junk_rejection(self):
        state = MemberState("tcp://h:1", 2, 5, "down")
        assert MemberState.from_dict(state.to_dict()) == state
        assert MemberState.from_dict({"address": "x", "status": "zombie"}) \
            is None
        assert MemberState.from_dict({"epoch": 1}) is None
        assert MemberState.from_dict("not a dict") is None


class TestMembershipView:
    def test_merge_counts_only_real_changes(self):
        view = MembershipView()
        assert view.observe(MemberState("a", 1, 1, "up"))
        other = MembershipView()
        other.observe(MemberState("a", 1, 2, "up"))
        other.observe(MemberState("b", 1, 0, "up"))
        assert view.merge(other) == 2
        assert view.merge(other) == 0  # idempotent
        assert view.alive() == ["a", "b"]
        assert len(view) == 2

    def test_merge_accepts_wire_dicts_and_none(self):
        view = MembershipView()
        assert view.merge(None) == 0
        assert view.merge({"members": "garbage"}) == 0
        wire = {"members": [MemberState("a", 1, 1, "up").to_dict(),
                            {"bogus": True}]}
        assert view.merge(wire) == 1
        assert view.get("a").epoch == 1


class TestGossipOp:
    def test_gossip_op_merges_and_answers_with_identity(self):
        with TcpShard() as shard:
            with ServiceClient(shard.address) as client:
                claim = MemberState("tcp://10.9.9.9:1", 3, 1, "up")
                response = client.gossip(
                    {"members": [claim.to_dict()]})
        assert response["epoch"] == 1
        assert response["merged"] == 1
        members = {m["address"]: m for m in response["view"]["members"]}
        assert members["tcp://10.9.9.9:1"]["epoch"] == 3
        assert members[shard.address]["status"] == "up"

    def test_gossip_op_refutes_claims_about_the_shard_itself(self):
        with TcpShard() as shard:
            death = MemberState(shard.address, 1, 0, "down")
            with ServiceClient(shard.address) as client:
                response = client.gossip({"members": [death.to_dict()]})
        me = {m["address"]: m for m in response["view"]["members"]}
        assert me[shard.address]["status"] == "up"
        assert (me[shard.address]["epoch"],
                me[shard.address]["beat"]) > (1, 0)

    def test_heartbeat_loop_converges_two_shards(self):
        with TcpShard(heartbeat_interval=0.1) as a:
            with TcpShard(heartbeat_interval=0.1,
                          peers=[a.address]) as b:
                _wait_for(
                    lambda: len(a.service.membership.alive()) == 2
                    and len(b.service.membership.alive()) == 2,
                    message="two-shard gossip convergence")
                assert b.service.gossip_sent >= 1
                assert a.service.membership.get(b.address).epoch == 1


class TestEpochPersistence:
    def test_restart_bumps_the_journaled_epoch(self, tmp_path):
        epoch_file = tmp_path / "shard.epoch"
        with TcpShard(epoch_path=epoch_file) as shard:
            address = shard.address
            port = int(address.rsplit(":", 1)[1])
            assert shard.service.epoch == 1
        assert epoch_file.read_text() == "1\n"
        # Same port, same epoch file: the revival must outrank its corpse.
        with TcpShard(listen=f"127.0.0.1:{port}",
                      epoch_path=epoch_file) as revived:
            assert revived.address == address
            assert revived.service.epoch == 2
        assert epoch_file.read_text() == "2\n"

    @pytest.mark.parametrize("content", [
        '{"format": 1, "campaign": "__service__"}\n',  # an old JSONL journal
        "three\n",
        "-1\n",
    ])
    def test_unreadable_epoch_file_stops_startup(self, tmp_path, content):
        epoch_file = tmp_path / "shard.epoch"
        epoch_file.write_text(content)
        service = SimService(listen="127.0.0.1:0", workers=1,
                             epoch_path=epoch_file)
        with pytest.raises(ServiceError, match="shard.epoch"):
            asyncio.run(service.start())
        assert service.queue is None  # nothing was started
        assert epoch_file.read_text() == content


class TestProbation:
    def test_probe_backoff_doubles_to_a_cap(self):
        assert [probe_backoff(n) for n in range(4)] == [0.5, 1.0, 2.0, 4.0]
        assert probe_backoff(99) == 30.0

    def test_down_marking_opens_a_probation_record(self):
        router = ShardRouter(["tcp://127.0.0.1:9", "tcp://127.0.0.1:10"])
        router.mark_down("tcp://127.0.0.1:9", "boom")
        assert router.down == {"tcp://127.0.0.1:9": "boom"}
        record = router.probation["tcp://127.0.0.1:9"]
        assert record["failures"] == 0
        assert record["next_probe"] > 0
        router.close()

    def test_failed_probes_back_off_exponentially(self):
        router = ShardRouter(["tcp://127.0.0.1:9", "tcp://127.0.0.1:10"],
                             probe_base=0.01, probe_timeout=0.2)
        router.mark_down("tcp://127.0.0.1:9", "boom")
        before = router.probation["tcp://127.0.0.1:9"]["next_probe"]
        assert router.maybe_probe(force=True) == []  # nothing listens there
        record = router.probation["tcp://127.0.0.1:9"]
        assert record["failures"] == 1
        assert record["next_probe"] > before
        assert router.stats["probes"] == 1
        router.close()

    def test_revived_shard_is_readmitted_by_a_probe(self):
        with TcpShard() as a, TcpShard() as b:
            router = ShardRouter([a.address, b.address], probe_base=0.01)
            router.mark_down(a.address, "injected outage")
            assert router.alive_shards() == [b.address]
            _wait_for(lambda: router.maybe_probe() == [a.address],
                      message="probation probe re-admission")
            assert router.down == {}
            assert router.stats["readmissions"] == 1
            assert sorted(router.alive_shards()) == \
                sorted([a.address, b.address])
            router.close()

    def test_flapping_shard_earns_longer_probation(self):
        with TcpShard() as a, TcpShard() as b:
            router = ShardRouter([a.address, b.address], probe_base=0.01)
            router.mark_down(a.address, "flap 1")
            first = router.probation[a.address]["next_probe"] \
                - time.monotonic()
            router.readmit(a.address)
            router.mark_down(a.address, "flap 2")
            second = router.probation[a.address]["next_probe"] \
                - time.monotonic()
            # Hysteresis: the second sentence is measurably longer.
            assert second > first
            router.close()


class TestRouterMembership:
    def test_refresh_membership_grows_the_ring_from_gossip(self):
        with TcpShard(heartbeat_interval=0.1) as a:
            with TcpShard(heartbeat_interval=0.1,
                          peers=[a.address]) as b:
                _wait_for(lambda: len(a.service.membership.alive()) == 2,
                          message="shards converge before the router looks")
                # The router only knows shard A; the gossiped view
                # teaches it B without any restart or reconfiguration.
                router = ShardRouter([a.address])
                view = router.refresh_membership()
                assert sorted(view.alive()) == sorted([a.address,
                                                       b.address])
                assert b.address in router.ring.shards
                assert router.stats["joined_shards"] == 1
                assert router.stats["gossip_merges"] >= 1
                router.close()

    def test_status_carries_the_membership_view(self):
        with TcpShard() as shard:
            router = ShardRouter([shard.address])
            router.refresh_membership()
            status = router.status()
            router.close()
        members = status["membership"]["members"]
        assert any(m["address"] == shard.address and m["status"] == "up"
                   for m in members)


class TestKnobResolution:
    def test_heartbeat_interval_resolution(self, monkeypatch):
        assert resolve_heartbeat_interval(2.5) == 2.5
        assert resolve_heartbeat_interval(-1) == 0.0
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.5")
        assert resolve_heartbeat_interval() == 0.5
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "junk")
        assert resolve_heartbeat_interval() == 1.0
        monkeypatch.delenv("REPRO_HEARTBEAT_INTERVAL")
        assert resolve_heartbeat_interval() == 1.0
