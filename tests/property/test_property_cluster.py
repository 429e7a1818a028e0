"""Property tests: the consistent-hash ring and probation behind the
cluster plane.

The :class:`~repro.engine.cluster.HashRing` carries two load-bearing
promises (see the module docstring there): keys spread *evenly* across
shards, and a ring with one shard more or less remaps *only* the keys
that touch that shard.  Hypothesis drives randomized shard sets; the key
population is a fixed deterministic corpus (hashes of a range) so the
balance bounds are tight without being flaky.  The router's probe
backoff, which decides when a downed shard is tried again, is pinned
here too.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.client import canonical_address
from repro.engine.cluster import HashRing, probe_backoff

#: Deterministic key corpus standing in for job content keys (which are
#: themselves sha256 hex digests, so this is distribution-faithful).
KEYS = [hashlib.sha256(f"job-{i}".encode()).hexdigest()
        for i in range(2000)]

_shard_names = st.lists(
    st.integers(min_value=0, max_value=200).map(
        lambda n: f"tcp://10.0.0.{n % 250}:{7000 + n}"),
    min_size=1, max_size=8, unique=True,
)


def _census(ring: HashRing) -> dict[str, int]:
    counts = {shard: 0 for shard in ring.shards}
    for key in KEYS:
        counts[ring.shard_for(key)] += 1
    return counts


@given(shards=_shard_names)
@settings(max_examples=40, deadline=None)
def test_every_key_lands_on_a_configured_shard(shards):
    ring = HashRing(shards)
    for key in KEYS[:200]:
        assert ring.shard_for(key) in shards


@given(shards=_shard_names)
@settings(max_examples=40, deadline=None)
def test_routing_is_deterministic_across_ring_instances(shards):
    one, two = HashRing(shards), HashRing(list(reversed(shards)))
    for key in KEYS[:200]:
        assert one.shard_for(key) == two.shard_for(key)


@given(shards=_shard_names)
@settings(max_examples=25, deadline=None)
def test_keys_balance_across_shards(shards):
    """No shard owns a wildly disproportionate share of the corpus.

    With 64 virtual nodes per shard the expected share is 1/N; the
    bound here is deliberately loose (every shard gets *some* keys and
    none gets more than 3x its fair share) — tight enough to catch a
    broken hash or a collapsed ring, loose enough to never flake.
    """
    ring = HashRing(shards)
    counts = _census(ring)
    fair = len(KEYS) / len(shards)
    assert all(count > 0 for count in counts.values())
    assert max(counts.values()) <= 3 * fair


@given(shards=_shard_names)
@settings(max_examples=25, deadline=None)
def test_removing_a_shard_only_remaps_its_own_keys(shards):
    """Exact minimal-remapping: survivors keep every key they owned."""
    ring = HashRing(shards)
    victim = shards[len(shards) // 2]
    survivors = HashRing([s for s in shards if s != victim])
    if not survivors.shards:
        return
    for key in KEYS:
        owner = ring.shard_for(key)
        if owner == victim:
            assert survivors.shard_for(key) in survivors.shards
        else:
            assert survivors.shard_for(key) == owner


@given(shards=_shard_names)
@settings(max_examples=25, deadline=None)
def test_adding_a_shard_only_steals_keys_for_itself(shards):
    """The add direction of minimal remapping: no survivor-to-survivor
    moves, so growing a cluster never shuffles existing cache locality."""
    ring = HashRing(shards)
    newcomer = "tcp://10.9.9.9:9999"
    grown = HashRing(shards + [newcomer])
    for key in KEYS:
        after = grown.shard_for(key)
        assert after == ring.shard_for(key) or after == newcomer


@given(shards=_shard_names)
@settings(max_examples=25, deadline=None)
def test_preference_order_is_a_permutation_with_owner_first(shards):
    ring = HashRing(shards)
    for key in KEYS[:100]:
        prefs = ring.preference(key)
        assert prefs[0] == ring.shard_for(key)
        assert sorted(prefs) == sorted(ring.shards)


@given(shards=_shard_names)
@settings(max_examples=25, deadline=None)
def test_failover_target_matches_ring_without_victim(shards):
    """preference()[1] after the owner dies == shard_for() on a ring
    that never contained the owner — the property that lets every
    client fail over independently yet agree on the new home."""
    ring = HashRing(shards)
    for key in KEYS[:100]:
        prefs = ring.preference(key)
        if len(prefs) < 2:
            continue
        survivor_ring = HashRing([s for s in shards if s != prefs[0]])
        assert survivor_ring.shard_for(key) == prefs[1]


def test_normalize_shard_spellings_collapse():
    assert canonical_address("10.0.0.1:7000") == "tcp://10.0.0.1:7000"
    assert canonical_address("tcp://10.0.0.1:7000") == "tcp://10.0.0.1:7000"
    assert canonical_address(" host:123 ") == "tcp://host:123"
    # Anything without a host and a numeric port is no address.
    for bad in ("/tmp/run:1/svc.sock", "9999", ":80", "tcp://no-port"):
        with pytest.raises(ValueError):
            canonical_address(bad)


@given(failures=st.integers(min_value=0, max_value=64))
@settings(max_examples=60)
def test_probe_backoff_is_monotone_and_capped(failures):
    assert probe_backoff(failures) <= probe_backoff(failures + 1)
    assert probe_backoff(failures) <= 30.0
    assert probe_backoff(0) == 0.5
