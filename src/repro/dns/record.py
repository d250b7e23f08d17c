"""Resource records and record sets.

A :class:`ResourceRecord` binds an owner name, type, class, TTL and rdata.
Rdata is modelled by small frozen dataclasses (one per supported type) that
know their presentation format; unknown types carry opaque text.

An :class:`RRSet` groups records sharing (owner, type, class) — the unit of
caching and of zone lookup answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import ZoneError
from .name import DnsName
from .rrtype import RRClass, RRType

# --------------------------------------------------------------------------
# rdata
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Rdata:
    """Base class for typed rdata."""

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ARdata(Rdata):
    address: str  # dotted quad

    def to_text(self) -> str:
        return self.address


@dataclass(frozen=True)
class AaaaRdata(Rdata):
    address: str

    def to_text(self) -> str:
        return self.address


@dataclass(frozen=True)
class NsRdata(Rdata):
    nsdname: DnsName

    def to_text(self) -> str:
        return f"{self.nsdname}."


@dataclass(frozen=True)
class CnameRdata(Rdata):
    target: DnsName

    def to_text(self) -> str:
        return f"{self.target}."


@dataclass(frozen=True)
class PtrRdata(Rdata):
    target: DnsName

    def to_text(self) -> str:
        return f"{self.target}."


@dataclass(frozen=True)
class MxRdata(Rdata):
    preference: int
    exchange: DnsName

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange}."


@dataclass(frozen=True)
class TxtRdata(Rdata):
    strings: tuple[str, ...]

    def to_text(self) -> str:
        return " ".join(f'"{s}"' for s in self.strings)


@dataclass(frozen=True)
class SoaRdata(Rdata):
    mname: DnsName
    rname: DnsName
    serial: int
    refresh: int = 3600
    retry: int = 600
    expire: int = 86400
    minimum: int = 300

    def to_text(self) -> str:
        return (
            f"{self.mname}. {self.rname}. {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )


@dataclass(frozen=True)
class SrvRdata(Rdata):
    priority: int
    weight: int
    port: int
    target: DnsName

    def to_text(self) -> str:
        return f"{self.priority} {self.weight} {self.port} {self.target}."


@dataclass(frozen=True)
class OpaqueRdata(Rdata):
    """Rdata of a type the library does not interpret."""

    text: str

    def to_text(self) -> str:
        return self.text


# --------------------------------------------------------------------------
# records
# --------------------------------------------------------------------------


@dataclass
class ResourceRecord:
    """One DNS resource record."""

    name: DnsName
    rtype: RRType
    ttl: int
    rdata: Rdata
    rclass: RRClass = RRClass.IN

    # Hand-written, so the dataclass keeps it (and still adds eq and
    # repr): every cache read and write builds records, and a generated
    # __init__ plus a __post_init__ check is two calls per record.
    def __init__(self, name: DnsName, rtype: RRType, ttl: int, rdata: Rdata,
                 rclass: RRClass = RRClass.IN):
        if ttl < 0:
            raise ZoneError(f"negative TTL on {name}")
        self.name = name
        self.rtype = rtype
        self.ttl = ttl
        self.rdata = rdata
        self.rclass = rclass

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        return ResourceRecord(self.name, self.rtype, ttl, self.rdata, self.rclass)

    def to_text(self) -> str:
        return f"{self.name}. {self.ttl} {self.rclass} {self.rtype} {self.rdata.to_text()}"

    @property
    def key(self) -> tuple[DnsName, RRType, RRClass]:
        return (self.name, self.rtype, self.rclass)


def a_record(owner: DnsName, address: str, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(owner, RRType.A, ttl, ARdata(address))


def aaaa_record(owner: DnsName, address: str, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(owner, RRType.AAAA, ttl, AaaaRdata(address))


def ns_record(owner: DnsName, nsdname: DnsName, ttl: int = 3600) -> ResourceRecord:
    return ResourceRecord(owner, RRType.NS, ttl, NsRdata(nsdname))


def cname_record(owner: DnsName, target: DnsName, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(owner, RRType.CNAME, ttl, CnameRdata(target))


def mx_record(owner: DnsName, preference: int, exchange: DnsName, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(owner, RRType.MX, ttl, MxRdata(preference, exchange))


def txt_record(owner: DnsName, *strings: str, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(owner, RRType.TXT, ttl, TxtRdata(tuple(strings)))


def spf_record(owner: DnsName, *strings: str, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(owner, RRType.SPF, ttl, TxtRdata(tuple(strings)))


def soa_record(owner: DnsName, mname: DnsName, rname: DnsName, serial: int = 1,
               ttl: int = 3600, minimum: int = 300) -> ResourceRecord:
    return ResourceRecord(owner, RRType.SOA, ttl, SoaRdata(mname, rname, serial, minimum=minimum))


# --------------------------------------------------------------------------
# RRsets
# --------------------------------------------------------------------------


@dataclass
class RRSet:
    """All records sharing (owner, type, class).

    The RRset TTL is the minimum of the member TTLs, matching how caches
    treat mixed-TTL sets in practice.
    """

    name: DnsName
    rtype: RRType
    rclass: RRClass = RRClass.IN
    records: list[ResourceRecord] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: Sequence[ResourceRecord]) -> "RRSet":
        if not records:
            raise ZoneError("cannot build an RRset from zero records")
        first = records[0]
        rrset = cls(first.name, first.rtype, first.rclass)
        for record in records:
            rrset.add(record)
        return rrset

    def add(self, record: ResourceRecord) -> None:
        if (record.name, record.rtype, record.rclass) != (self.name, self.rtype, self.rclass):
            raise ZoneError(
                f"record {record.to_text()} does not belong to RRset "
                f"({self.name}, {self.rtype}, {self.rclass})"
            )
        if record not in self.records:
            self.records.append(record)

    @property
    def ttl(self) -> int:
        # A plain loop: every cache write reads it, and a generator
        # expression is a call per record.
        records = self.records
        if not records:
            return 0
        ttl = records[0].ttl
        for record in records:
            if record.ttl < ttl:
                ttl = record.ttl
        return ttl

    def with_ttl(self, ttl: int) -> "RRSet":
        # Every cache read and write copies an RRset, so this is a plain
        # loop: cheaper than a comprehension, which is a call on 3.11.
        records = []
        for record in self.records:
            records.append(ResourceRecord(record.name, record.rtype, ttl,
                                          record.rdata, record.rclass))
        return RRSet(self.name, self.rtype, self.rclass, records)

    def __iter__(self) -> Iterator[ResourceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def to_text(self) -> str:
        return "\n".join(record.to_text() for record in self.records)


def group_rrsets(records: Iterable[ResourceRecord]) -> list[RRSet]:
    """Group loose records into RRsets, preserving first-seen order."""
    grouped: dict[tuple[DnsName, RRType, RRClass], RRSet] = {}
    for record in records:
        key = (record.name, record.rtype, record.rclass)
        rrset = grouped.get(key)
        if rrset is None:
            rrset = grouped[key] = RRSet(record.name, record.rtype,
                                         record.rclass)
        rrset.add(record)
    return list(grouped.values())
