"""IPv4 addresses, prefixes and allocation pools.

The paper's platform model allocates full subnets to resolvers: ``2^(32-x)``
ingress addresses and ``2^(32-y)`` egress addresses (Figure 1).  This module
provides lightweight integer-backed IPv4 handling plus :class:`AddressPool`,
which hands out unique addresses from a prefix, and :class:`AddressAllocator`
which carves disjoint prefixes out of a supernet for the population
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator


def ip_to_int(address: str) -> int:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 address {address!r}")
        value = (value << 8) | octet
    return value


#: Bound on the parsed-address cache behind :meth:`Prefix.contains`.
#: Fault scopes and resolver ACLs test the same endpoint addresses on
#: every query attempt; a census shard talks to a few thousand at most,
#: and past the bound the least recently used address is parsed again.
_ADDRESS_CACHE_MAX = 4096

#: :func:`ip_to_int` memoised per address string.  A malformed address
#: raises on every call: ``lru_cache`` never stores an exception.
_address_int = lru_cache(maxsize=_ADDRESS_CACHE_MAX)(ip_to_int)


def int_to_ip(value: int) -> str:
    if not 0 <= value < 2 ** 32:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return (f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}."
            f"{(value >> 8) & 0xFF}.{value & 0xFF}")


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix ``base/length``."""

    base: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"bad prefix length {self.length}")
        mask = self.netmask
        if self.base & ~mask & 0xFFFFFFFF:
            raise ValueError("prefix base has host bits set")

    @classmethod
    def from_text(cls, text: str) -> "Prefix":
        base_text, _, length_text = text.partition("/")
        return cls(ip_to_int(base_text), int(length_text))

    @cached_property
    def netmask(self) -> int:
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @property
    def size(self) -> int:
        return 2 ** (32 - self.length)

    def contains(self, address: str) -> bool:
        return (_address_int(address) & self.netmask) == self.base

    def addresses(self) -> Iterator[str]:
        for offset in range(self.size):
            yield int_to_ip(self.base + offset)

    def nth(self, offset: int) -> str:
        if not 0 <= offset < self.size:
            raise IndexError(f"offset {offset} outside /{self.length}")
        return int_to_ip(self.base + offset)

    def __str__(self) -> str:
        return f"{int_to_ip(self.base)}/{self.length}"


class AddressPool:
    """Sequentially allocates unique addresses out of a prefix."""

    def __init__(self, prefix: Prefix | str):
        if isinstance(prefix, str):
            prefix = Prefix.from_text(prefix)
        self.prefix = prefix
        self._next = 0

    def allocate(self) -> str:
        if self._next >= self.prefix.size:
            raise RuntimeError(f"address pool {self.prefix} exhausted")
        address = self.prefix.nth(self._next)
        self._next += 1
        return address

    def allocate_block(self, count: int) -> list[str]:
        start = self._next
        if start + count > self.prefix.size:
            raise RuntimeError(f"address pool {self.prefix} exhausted")
        self._next = start + count
        base = self.prefix.base + start
        return [(f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}."
                 f"{(v >> 8) & 0xFF}.{v & 0xFF}")
                for v in range(base, base + count)]

    @property
    def remaining(self) -> int:
        return self.prefix.size - self._next


class AddressAllocator:
    """Carves disjoint sub-prefixes out of a supernet.

    Used by the population generators: each simulated platform receives its
    own subnet for ingress/egress resolvers, mirroring the paper's "typically
    a full subnet is allocated for the resolvers".
    """

    def __init__(self, supernet: Prefix | str = "10.0.0.0/8"):
        if isinstance(supernet, str):
            supernet = Prefix.from_text(supernet)
        self.supernet = supernet
        self._cursor = supernet.base

    def allocate_prefix(self, length: int) -> Prefix:
        if length < self.supernet.length:
            raise ValueError("requested prefix larger than the supernet")
        size = 2 ** (32 - length)
        # Align the cursor to the requested size.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        end = self.supernet.base + self.supernet.size
        if aligned + size > end:
            raise RuntimeError(f"supernet {self.supernet} exhausted")
        self._cursor = aligned + size
        return Prefix(aligned, length)

    def allocate_pool(self, min_addresses: int) -> AddressPool:
        """A pool with capacity for at least ``min_addresses`` hosts."""
        length = 32
        while 2 ** (32 - length) < min_addresses:
            length -= 1
        return AddressPool(self.allocate_prefix(length))
