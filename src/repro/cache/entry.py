"""Cache entries.

A :class:`CacheEntry` is one cached RRset (or a negative answer) together
with its timing metadata.  Remaining TTL is computed against virtual time;
entries never mutate their stored records.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..dns.name import DnsName
from ..dns.record import ResourceRecord, RRSet
from ..dns.rrtype import RRType


class EntryKind(enum.Enum):
    POSITIVE = "positive"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"


class CacheEntry:
    """One cached RRset or negative answer, with its timing metadata.

    Every cache write builds one, so it is a plain slotted class whose
    constructor sets the fields directly: ``rrset`` is required for a
    positive entry (negative entries may carry the zone's SOA instead),
    and the entry starts unhit, last used when stored.
    """

    __slots__ = ("name", "rtype", "kind", "stored_at", "expires_at",
                 "rrset", "soa", "hits", "last_used")

    def __init__(self, name: DnsName, rtype: RRType, kind: EntryKind,
                 stored_at: float, expires_at: float,
                 rrset: Optional[RRSet] = None,
                 soa: Optional[ResourceRecord] = None):
        if rrset is None and kind is EntryKind.POSITIVE:
            raise ValueError("positive cache entry requires an RRset")
        self.name = name
        self.rtype = rtype
        self.kind = kind
        self.stored_at = stored_at
        self.expires_at = expires_at
        self.rrset = rrset
        self.soa = soa
        self.hits = 0
        self.last_used = stored_at

    def __repr__(self) -> str:
        return (f"CacheEntry({self.name!r}, {self.rtype!s}, "
                f"{self.kind.value}, stored_at={self.stored_at}, "
                f"expires_at={self.expires_at}, hits={self.hits})")

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at

    def remaining_ttl(self, now: float) -> int:
        """TTL left, floored at zero, truncated to whole seconds."""
        return max(0, int(self.expires_at - now))

    def aged_rrset(self, now: float) -> Optional[RRSet]:
        """The stored RRset with TTLs decremented by the entry's age."""
        rrset = self.rrset
        if rrset is None:
            return None
        # remaining_ttl, inline: every cached answer served is aged here.
        return rrset.with_ttl(max(0, int(self.expires_at - now)))

    @property
    def key(self) -> tuple[DnsName, RRType]:
        return (self.name, self.rtype)
