"""Cache entries.

A :class:`CacheEntry` is one cached RRset (or a negative answer) together
with its timing metadata.  Remaining TTL is computed against virtual time;
entries never mutate their stored records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..dns.name import DnsName
from ..dns.record import ResourceRecord, RRSet
from ..dns.rrtype import RRType


class EntryKind(enum.Enum):
    POSITIVE = "positive"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"


@dataclass
class CacheEntry:
    name: DnsName
    rtype: RRType
    kind: EntryKind
    stored_at: float
    expires_at: float
    rrset: Optional[RRSet] = None       # POSITIVE entries only
    soa: Optional[ResourceRecord] = None  # negative entries may carry the SOA
    hits: int = 0
    last_used: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.kind == EntryKind.POSITIVE and self.rrset is None:
            raise ValueError("positive cache entry requires an RRset")
        self.last_used = self.stored_at

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at

    def remaining_ttl(self, now: float) -> int:
        """TTL left, floored at zero, truncated to whole seconds."""
        return max(0, int(self.expires_at - now))

    def aged_rrset(self, now: float) -> Optional[RRSet]:
        """The stored RRset with TTLs decremented by the entry's age."""
        if self.rrset is None:
            return None
        return self.rrset.with_ttl(self.remaining_ttl(now))

    @property
    def key(self) -> tuple[DnsName, RRType]:
        return (self.name, self.rtype)
