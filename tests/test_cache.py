"""Tests for the DNS cache substrate: TTLs, negatives, eviction, clamps."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheEntry, DnsCache, EntryKind, make_policy
from repro.dns import RRSet, RRType, a_record, name, soa_record


def rrset_for(text, address="1.2.3.4", ttl=300):
    return RRSet.from_records([a_record(name(text), address, ttl=ttl)])


@pytest.fixture
def cache():
    return DnsCache(capacity=100)


class TestBasics:
    def test_miss_then_hit(self, cache):
        assert cache.get(name("a.example"), RRType.A, now=0.0) is None
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        entry = cache.get(name("a.example"), RRType.A, now=1.0)
        assert entry is not None
        assert entry.kind == EntryKind.POSITIVE

    def test_stats(self, cache):
        cache.get(name("a.example"), RRType.A, now=0.0)
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        cache.get(name("a.example"), RRType.A, now=1.0)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_type_isolation(self, cache):
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        assert cache.get(name("a.example"), RRType.TXT, now=0.0) is None

    def test_case_insensitive_keying(self, cache):
        cache.put_rrset(rrset_for("A.Example"), now=0.0)
        assert cache.get(name("a.example"), RRType.A, now=0.0) is not None

    def test_flush(self, cache):
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        cache.flush()
        assert len(cache) == 0

    def test_remove(self, cache):
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        cache.remove(name("a.example"), RRType.A)
        assert cache.peek(name("a.example"), RRType.A, now=0.0) is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DnsCache(capacity=0)

    def test_invalid_ttl_window(self):
        with pytest.raises(ValueError):
            DnsCache(min_ttl=100, max_ttl=50)


class TestTtl:
    def test_expiry(self, cache):
        cache.put_rrset(rrset_for("a.example", ttl=60), now=0.0)
        assert cache.get(name("a.example"), RRType.A, now=59.9) is not None
        assert cache.get(name("a.example"), RRType.A, now=60.0) is None

    def test_aged_rrset_ttl_decreases(self, cache):
        cache.put_rrset(rrset_for("a.example", ttl=300), now=0.0)
        entry = cache.get(name("a.example"), RRType.A, now=100.0)
        aged = entry.aged_rrset(100.0)
        assert aged.ttl == 200

    def test_min_ttl_clamp(self):
        cache = DnsCache(min_ttl=60, max_ttl=3600)
        cache.put_rrset(rrset_for("a.example", ttl=1), now=0.0)
        entry = cache.get(name("a.example"), RRType.A, now=30.0)
        assert entry is not None  # TTL 1 was raised to 60

    def test_max_ttl_clamp(self):
        cache = DnsCache(max_ttl=100)
        cache.put_rrset(rrset_for("a.example", ttl=10_000), now=0.0)
        assert cache.get(name("a.example"), RRType.A, now=101.0) is None

    def test_clamp_ttl_function(self):
        cache = DnsCache(min_ttl=10, max_ttl=100)
        assert cache.clamp_ttl(5) == 10
        assert cache.clamp_ttl(50) == 50
        assert cache.clamp_ttl(500) == 100


class TestNegativeCaching:
    def test_nxdomain_hits_any_type(self, cache):
        cache.put_nxdomain(name("gone.example"), now=0.0)
        for qtype in (RRType.A, RRType.TXT, RRType.MX):
            entry = cache.get(name("gone.example"), qtype, now=1.0)
            assert entry is not None
            assert entry.kind == EntryKind.NXDOMAIN

    def test_nodata_is_per_type(self, cache):
        cache.put_nodata(name("a.example"), RRType.TXT, now=0.0)
        assert cache.get(name("a.example"), RRType.TXT, now=1.0) is not None
        assert cache.get(name("a.example"), RRType.A, now=1.0) is None

    def test_negative_ttl_from_soa(self, cache):
        soa = soa_record(name("example"), name("ns.example"),
                         name("admin.example"), ttl=3600, minimum=60)
        cache.put_nxdomain(name("gone.example"), now=0.0, soa=soa)
        assert cache.get(name("gone.example"), RRType.A, now=59.0) is not None
        assert cache.get(name("gone.example"), RRType.A, now=61.0) is None

    def test_negative_ttl_cap_without_soa(self):
        cache = DnsCache(negative_ttl_cap=120)
        cache.put_nxdomain(name("gone.example"), now=0.0)
        assert cache.get(name("gone.example"), RRType.A, now=119.0) is not None
        assert cache.get(name("gone.example"), RRType.A, now=121.0) is None

    def test_nxdomain_expiry(self, cache):
        cache.put_nxdomain(name("gone.example"), now=0.0)
        far = cache.negative_ttl_cap + 1.0
        assert cache.get(name("gone.example"), RRType.A, now=far) is None


class TestEviction:
    def test_capacity_enforced(self):
        cache = DnsCache(capacity=10)
        for index in range(25):
            cache.put_rrset(rrset_for(f"h{index}.example"), now=float(index))
        assert len(cache) <= 10
        assert cache.stats.evictions >= 15

    def test_lru_evicts_least_recent(self):
        cache = DnsCache(capacity=2, policy=make_policy("lru"))
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        cache.put_rrset(rrset_for("b.example"), now=1.0)
        cache.get(name("a.example"), RRType.A, now=2.0)  # refresh a
        cache.put_rrset(rrset_for("c.example"), now=3.0)
        assert cache.peek(name("a.example"), RRType.A, now=3.0) is not None
        assert cache.peek(name("b.example"), RRType.A, now=3.0) is None

    def test_lfu_evicts_least_used(self):
        cache = DnsCache(capacity=2, policy=make_policy("lfu"))
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        cache.put_rrset(rrset_for("b.example"), now=1.0)
        for _ in range(3):
            cache.get(name("b.example"), RRType.A, now=2.0)
        cache.put_rrset(rrset_for("c.example"), now=3.0)
        assert cache.peek(name("b.example"), RRType.A, now=3.0) is not None
        assert cache.peek(name("a.example"), RRType.A, now=3.0) is None

    def test_fifo_evicts_oldest(self):
        cache = DnsCache(capacity=2, policy=make_policy("fifo"))
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        cache.put_rrset(rrset_for("b.example"), now=1.0)
        cache.get(name("a.example"), RRType.A, now=2.0)  # does not save a
        cache.put_rrset(rrset_for("c.example"), now=3.0)
        assert cache.peek(name("a.example"), RRType.A, now=3.0) is None

    def test_random_policy_evicts_something(self):
        cache = DnsCache(capacity=2, policy=make_policy("random"),
                         rng=random.Random(0))
        for index in range(5):
            cache.put_rrset(rrset_for(f"h{index}.example"), now=float(index))
        assert len(cache) == 2

    def test_expired_purged_before_eviction(self):
        cache = DnsCache(capacity=2)
        cache.put_rrset(rrset_for("a.example", ttl=1), now=0.0)
        cache.put_rrset(rrset_for("b.example", ttl=300), now=0.0)
        cache.put_rrset(rrset_for("c.example", ttl=300), now=5.0)
        # a expired; no live entry had to be evicted.
        assert cache.stats.evictions == 0
        assert cache.peek(name("b.example"), RRType.A, now=5.0) is not None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("mru")

    def test_update_existing_key_does_not_evict(self):
        cache = DnsCache(capacity=1)
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        cache.put_rrset(rrset_for("a.example", address="9.9.9.9"), now=1.0)
        assert cache.stats.evictions == 0
        assert len(cache) == 1


class TestEntry:
    def test_positive_entry_requires_rrset(self):
        with pytest.raises(ValueError):
            CacheEntry(name("a.example"), RRType.A, EntryKind.POSITIVE,
                       stored_at=0.0, expires_at=10.0, rrset=None)

    def test_remaining_ttl_floor(self):
        entry = CacheEntry(name("a.example"), RRType.A, EntryKind.NODATA,
                           stored_at=0.0, expires_at=10.0)
        assert entry.remaining_ttl(5.0) == 5
        assert entry.remaining_ttl(50.0) == 0

    def test_touch_updates_recency(self, cache):
        # A hit touches the entry it returns: directly, or through the
        # NXDOMAIN entry that answers every qtype at its name.
        cache.put_rrset(rrset_for("a.example"), now=0.0)
        cache.put_nxdomain(name("nx.example"), now=0.0)
        for now in (2.0, 3.0):
            entry = cache.get(name("a.example"), RRType.A, now=now)
            nx = cache.get(name("nx.example"), RRType.TXT, now=now)
        assert (entry.hits, entry.last_used) == (2, 3.0)
        assert nx.kind is EntryKind.NXDOMAIN
        assert (nx.hits, nx.last_used) == (2, 3.0)


class TestProperties:
    @settings(max_examples=40)
    @given(ttl=st.integers(0, 10_000),
           min_ttl=st.integers(0, 500),
           span=st.integers(0, 10_000))
    def test_clamp_invariant(self, ttl, min_ttl, span):
        cache = DnsCache(min_ttl=min_ttl, max_ttl=min_ttl + span)
        clamped = cache.clamp_ttl(ttl)
        assert cache.min_ttl <= clamped <= cache.max_ttl

    @settings(max_examples=30)
    @given(capacity=st.integers(1, 20), inserts=st.integers(1, 60))
    def test_capacity_never_exceeded(self, capacity, inserts):
        cache = DnsCache(capacity=capacity)
        for index in range(inserts):
            cache.put_rrset(rrset_for(f"n{index}.example"), now=float(index))
        assert len(cache) <= capacity
