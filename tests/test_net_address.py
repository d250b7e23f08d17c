"""Tests for IPv4 addresses, prefixes and allocators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    AddressAllocator, AddressPool, Prefix, SimClock, int_to_ip, ip_to_int,
)
from repro.net import address as address_module
from repro.net.faults import (
    CLIENT_PREFIX,
    INFRASTRUCTURE_PREFIX,
    PLATFORM_PREFIX,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRule,
)


class TestConversions:
    def test_ip_to_int(self):
        assert ip_to_int("0.0.0.1") == 1
        assert ip_to_int("1.0.0.0") == 2 ** 24
        assert ip_to_int("255.255.255.255") == 2 ** 32 - 1

    def test_int_to_ip(self):
        assert int_to_ip(2 ** 24 + 5) == "1.0.0.5"

    def test_bad_ip_rejected(self):
        for bad in ("1.2.3", "1.2.3.4.5", "1.2.3.256", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip_to_int(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(ValueError):
            int_to_ip(2 ** 32)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value


class TestPrefix:
    def test_from_text(self):
        prefix = Prefix.from_text("10.1.0.0/16")
        assert prefix.size == 65536
        assert str(prefix) == "10.1.0.0/16"

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix.from_text("10.1.0.1/16")

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)

    def test_contains(self):
        prefix = Prefix.from_text("10.1.0.0/16")
        assert prefix.contains("10.1.2.3")
        assert not prefix.contains("10.2.0.0")

    def test_nth(self):
        prefix = Prefix.from_text("10.1.0.0/24")
        assert prefix.nth(0) == "10.1.0.0"
        assert prefix.nth(255) == "10.1.0.255"
        with pytest.raises(IndexError):
            prefix.nth(256)

    def test_addresses_iterates_all(self):
        prefix = Prefix.from_text("10.0.0.0/30")
        assert list(prefix.addresses()) == \
            ["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3"]

    def test_slash32(self):
        prefix = Prefix.from_text("192.0.2.1/32")
        assert prefix.size == 1
        assert prefix.contains("192.0.2.1")


SCOPES = (PLATFORM_PREFIX, INFRASTRUCTURE_PREFIX, CLIENT_PREFIX,
          "192.0.2.1/32", "0.0.0.0/0")


def _fresh_contains(prefix_text: str, address: str) -> bool:
    """Membership from scratch: no shared parse, no cached mask."""
    base_text, _, length_text = prefix_text.partition("/")
    length = int(length_text)
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return ip_to_int(address) & mask == ip_to_int(base_text)


def _injector(rule: FaultRule) -> FaultInjector:
    """An injector for one certain rule: it fires exactly when in scope."""
    return FaultInjector(FaultPlan("scope", (rule,)), SimClock(),
                         random.Random(0))


class TestCachedScopeMatching:
    """Fault scopes and resolver ACLs parse each address once, bounded."""

    EDGES = ("10.0.0.0", "10.255.255.255", "9.255.255.255", "11.0.0.0",
             "203.0.113.0", "203.0.113.255", "203.0.114.0", "203.0.112.255",
             "172.16.0.0", "172.31.255.255", "172.32.0.0", "172.15.255.255",
             "192.0.2.1", "192.0.2.0", "192.0.2.2", "0.0.0.0",
             "255.255.255.255")

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 2 ** 32 - 1), max_size=20))
    def test_agrees_with_a_fresh_parse_over_a_sweep(self, values):
        addresses = self.EDGES + tuple(int_to_ip(v) for v in values)
        for text in SCOPES:
            prefix = Prefix.from_text(text)
            injector = _injector(FaultRule(
                FaultKind.DROP_REQUEST, dst_prefix=text, src_prefix=text))
            for address in addresses + addresses:   # cold, then cached
                expected = _fresh_contains(text, address)
                assert prefix.contains(address) is expected
                assert (injector.decide(address, address) is not None) \
                    is expected
                assert (injector.decide(address, "198.51.100.1")
                        is not None) is \
                    (expected and _fresh_contains(text, "198.51.100.1"))
                assert (injector.decide("198.51.100.1", address)
                        is not None) is \
                    (expected and _fresh_contains(text, "198.51.100.1"))

    @pytest.mark.parametrize("bad", ["1.2.3", "10.0.0.256", "a.b.c.d",
                                     "10.0.0.1.5", ""])
    def test_malformed_address_raises_on_every_call(self, bad):
        prefix = Prefix.from_text(PLATFORM_PREFIX)
        injector = _injector(
            FaultRule(FaultKind.DROP_REQUEST, dst_prefix=PLATFORM_PREFIX))
        cached = address_module._address_int.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError):
                prefix.contains(bad)
            with pytest.raises(ValueError):
                injector.decide("172.16.0.1", bad)
        assert address_module._address_int.cache_info().currsize <= cached

    def test_address_cache_is_bounded(self):
        bound = address_module._ADDRESS_CACHE_MAX
        assert address_module._address_int.cache_info().maxsize == bound
        prefix = Prefix.from_text(PLATFORM_PREFIX)
        for offset in range(bound + 500):
            assert prefix.contains(int_to_ip(prefix.base + offset))
        assert address_module._address_int.cache_info().currsize == bound


class TestAddressPool:
    def test_allocates_unique(self):
        pool = AddressPool("10.0.0.0/29")
        block = pool.allocate_block(8)
        assert len(set(block)) == 8

    def test_exhaustion(self):
        pool = AddressPool("10.0.0.0/31")
        pool.allocate_block(2)
        with pytest.raises(RuntimeError):
            pool.allocate()

    def test_remaining(self):
        pool = AddressPool("10.0.0.0/30")
        pool.allocate()
        assert pool.remaining == 3


class TestAddressAllocator:
    def test_disjoint_prefixes(self):
        allocator = AddressAllocator("10.0.0.0/8")
        a = allocator.allocate_prefix(24)
        b = allocator.allocate_prefix(24)
        a_addresses = set(a.addresses())
        assert not any(addr in a_addresses for addr in b.addresses())

    def test_alignment(self):
        allocator = AddressAllocator("10.0.0.0/8")
        allocator.allocate_prefix(30)
        big = allocator.allocate_prefix(16)
        assert big.base % big.size == 0

    def test_pool_capacity(self):
        allocator = AddressAllocator("10.0.0.0/8")
        pool = allocator.allocate_pool(min_addresses=300)
        assert pool.prefix.size >= 300
        pool.allocate_block(300)

    def test_too_large_rejected(self):
        allocator = AddressAllocator("10.0.0.0/16")
        with pytest.raises(ValueError):
            allocator.allocate_prefix(8)

    def test_exhaustion(self):
        allocator = AddressAllocator("10.0.0.0/30")
        allocator.allocate_prefix(31)
        allocator.allocate_prefix(31)
        with pytest.raises(RuntimeError):
            allocator.allocate_prefix(32)
