"""Unit tests for router probation: a downed shard is not a dead shard.

In-process shards (``tests/conftest.py``'s ``daemon`` helper: real TCP
sockets, background threads) drive the router's only liveness
mechanism end to end: down-marking opens a probation record, half-open
probes back off exponentially (longer for a flapping shard), and a
revived shard is re-admitted by a probe alone.
"""

import time

from repro.engine.cluster import ShardRouter, probe_backoff


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out: {message}"
        time.sleep(0.05)


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

    def test_revived_shard_is_readmitted_by_a_probe(self, daemon):
        with daemon() as a, daemon() as b:
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

    def test_flapping_shard_earns_longer_probation(self, daemon):
        with daemon() as a, daemon() as b:
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

