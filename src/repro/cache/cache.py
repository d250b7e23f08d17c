"""The DNS cache.

:class:`DnsCache` stores positive RRsets and negative answers keyed by
(name, type), honours TTLs against virtual time, clamps TTLs to a
configurable [min, max] window (paper §II-C footnote: "Some DNS resolution
platforms enforce a minimal and a maximal TTL"), performs RFC 2308 negative
caching, and evicts via a pluggable policy when full.

Each cache instance carries a stable ``cache_id`` so that measurement code
can compare an enumeration result against ground truth.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from ..dns.name import DnsName
from ..dns.record import ResourceRecord, RRSet, SoaRdata
from ..dns.rrtype import RRType
from ..net.rng import fallback_rng
from .entry import CacheEntry, EntryKind
from .policy import EvictionPolicy, LruPolicy

_cache_counter = itertools.count(1)

#: RFC 2308 caps the negative-answer TTL at 3 hours by convention.
DEFAULT_NEGATIVE_TTL_CAP = 10800


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class DnsCache:
    """One cache instance inside a resolution platform."""

    def __init__(self, cache_id: Optional[str] = None, capacity: int = 100_000,
                 min_ttl: int = 0, max_ttl: int = 604_800,
                 negative_ttl_cap: int = DEFAULT_NEGATIVE_TTL_CAP,
                 policy: Optional[EvictionPolicy] = None,
                 rng: Optional[random.Random] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if min_ttl < 0 or max_ttl < min_ttl:
            raise ValueError("need 0 <= min_ttl <= max_ttl")
        self.cache_id = cache_id or f"cache-{next(_cache_counter)}"
        self.capacity = capacity
        self.min_ttl = min_ttl
        self.max_ttl = max_ttl
        self.negative_ttl_cap = negative_ttl_cap
        self.policy = policy or LruPolicy()
        self.rng = rng or fallback_rng("cache.DnsCache")
        self.stats = CacheStats()
        self._entries: dict[tuple[DnsName, RRType], CacheEntry] = {}
        #: Lower bound on the earliest ``expires_at`` among live entries.
        #: While ``now`` stays below it no entry can be expired, so inserts
        #: skip the O(n) purge scan.  Removals only raise the true minimum,
        #: so the bound stays valid without maintenance.
        self._next_expiry = float("inf")
        #: False while no NXDOMAIN entry has been stored since the last
        #: flush, so a miss need not read the name's ``(name, ANY)`` key.
        self._may_hold_nxdomain = False

    # -- TTL handling -----------------------------------------------------

    def clamp_ttl(self, ttl: int) -> int:
        """Apply the platform's minimum/maximum TTL window."""
        return min(max(ttl, self.min_ttl), self.max_ttl)

    # -- lookups -----------------------------------------------------------

    def get(self, name: DnsName, rtype: RRType, now: float) -> Optional[CacheEntry]:
        """The live entry for (name, rtype), or ``None`` on miss.

        An NXDOMAIN entry for the name answers any qtype, matching RFC 2308:
        a cached name error denies the whole name.
        """
        entries = self._entries
        entry = entries.get((name, rtype))
        if entry is None or now >= entry.expires_at:
            if entry is not None:
                del entries[(name, rtype)]
                self.stats.expirations += 1
            # NXDOMAIN covers every qtype at the name.
            nx = entries.get((name, RRType.ANY)) \
                if self._may_hold_nxdomain else None
            if nx is not None and nx.kind is EntryKind.NXDOMAIN:
                if now >= nx.expires_at:
                    del entries[(name, RRType.ANY)]
                    self.stats.expirations += 1
                else:
                    nx.hits += 1
                    nx.last_used = now
                    self.stats.hits += 1
                    return nx
            self.stats.misses += 1
            return None
        entry.hits += 1
        entry.last_used = now
        self.stats.hits += 1
        return entry

    def peek(self, name: DnsName, rtype: RRType, now: float) -> Optional[CacheEntry]:
        """Like :meth:`get` but without touching stats or recency."""
        entries = self._entries
        entry = entries.get((name, rtype))
        if entry is not None and now < entry.expires_at:
            return entry
        nx = entries.get((name, RRType.ANY)) \
            if self._may_hold_nxdomain else None
        if nx is not None and nx.kind is EntryKind.NXDOMAIN and \
                now < nx.expires_at:
            return nx
        return None

    def contains(self, name: DnsName, rtype: RRType, now: float) -> bool:
        return self.peek(name, rtype, now) is not None

    # -- insertion -------------------------------------------------------------

    def put_rrset(self, rrset: RRSet, now: float) -> CacheEntry:
        # clamp_ttl, inline: every positive answer is stored through here.
        ttl = min(max(rrset.ttl, self.min_ttl), self.max_ttl)
        entry = CacheEntry(
            name=rrset.name,
            rtype=rrset.rtype,
            kind=EntryKind.POSITIVE,
            stored_at=now,
            expires_at=now + ttl,
            rrset=rrset.with_ttl(ttl),
        )
        self._insert(entry, now)
        return entry

    def put_nxdomain(self, name: DnsName, now: float,
                     soa: Optional[ResourceRecord] = None) -> CacheEntry:
        ttl = self._negative_ttl(soa)
        self._may_hold_nxdomain = True
        entry = CacheEntry(
            name=name,
            rtype=RRType.ANY,  # an NXDOMAIN denies every type at the name
            kind=EntryKind.NXDOMAIN,
            stored_at=now,
            expires_at=now + ttl,
            soa=soa,
        )
        self._insert(entry, now)
        return entry

    def put_nodata(self, name: DnsName, rtype: RRType, now: float,
                   soa: Optional[ResourceRecord] = None) -> CacheEntry:
        ttl = self._negative_ttl(soa)
        entry = CacheEntry(
            name=name,
            rtype=rtype,
            kind=EntryKind.NODATA,
            stored_at=now,
            expires_at=now + ttl,
            soa=soa,
        )
        self._insert(entry, now)
        return entry

    def _negative_ttl(self, soa: Optional[ResourceRecord]) -> int:
        if soa is not None:
            assert isinstance(soa.rdata, SoaRdata)
            ttl = min(soa.ttl, soa.rdata.minimum, self.negative_ttl_cap)
        else:
            ttl = self.negative_ttl_cap
        # clamp_ttl, inline: every negative answer is stored through here.
        return min(max(ttl, self.min_ttl), self.max_ttl)

    def _insert(self, entry: CacheEntry, now: float) -> None:
        if now >= self._next_expiry:
            self._purge_expired(now)
        entries = self._entries
        key = (entry.name, entry.rtype)
        if len(entries) >= self.capacity and key not in entries:
            victim = self.policy.choose_victim(entries.values(), self.rng)
            if victim is not None:
                del entries[victim]
                self.stats.evictions += 1
        entries[key] = entry
        if entry.expires_at < self._next_expiry:
            self._next_expiry = entry.expires_at
        self.stats.insertions += 1

    # -- maintenance -----------------------------------------------------------

    def _purge_expired(self, now: float) -> None:
        expired = [key for key, entry in self._entries.items() if entry.is_expired(now)]
        for key in expired:
            del self._entries[key]
        self.stats.expirations += len(expired)
        self._next_expiry = min(
            (entry.expires_at for entry in self._entries.values()),
            default=float("inf"))

    def flush(self) -> None:
        self._entries.clear()
        self._next_expiry = float("inf")
        self._may_hold_nxdomain = False

    def remove(self, name: DnsName, rtype: RRType) -> None:
        self._entries.pop((name, rtype), None)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[CacheEntry]:
        return list(self._entries.values())

    def __repr__(self) -> str:
        return (f"DnsCache({self.cache_id!r}, size={len(self._entries)}, "
                f"hit_rate={self.stats.hit_rate:.2f})")
