"""Authoritative zone data and lookup semantics.

A :class:`Zone` stores the RRsets of one zone cut and answers the question
"what does an authoritative server say for (qname, qtype)?" with a
:class:`LookupResult` of one of five kinds:

* ``ANSWER``   — the RRset exists at the qname.
* ``CNAME``    — a CNAME exists at the qname and the qtype is not CNAME.
* ``REFERRAL`` — the qname falls under a delegation point inside the zone;
  the result carries the NS RRset and in-zone glue.
* ``NODATA``   — the name exists but has no RRset of the qtype.
* ``NXDOMAIN`` — the name does not exist.

Wildcards (``*`` leftmost label) are supported with RFC 1034 §4.3.3
semantics: a wildcard synthesises records for any name that would otherwise
not exist, unless a more specific name (or delegation) intervenes.

A zone keeps an owner index and a reference-counted index of every
owner's ancestors next to its RRset store, so a lookup costs
O(name depth) dictionary probes however many names the zone holds: the
CDE zone gains a CNAME chain per indirectly measured platform, and a
world that measures many platforms without retiring them keeps every
chain.

:func:`parse_zone_text` parses the zone-fragment syntax the paper uses
(``$ORIGIN``, ``name IN TYPE rdata`` lines) so that the examples can be
written exactly like Section IV-B2 of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import ZoneError, ZoneParseError
from .name import DnsName, name as make_name
from .record import (
    AaaaRdata,
    ARdata,
    CnameRdata,
    MxRdata,
    NsRdata,
    OpaqueRdata,
    PtrRdata,
    ResourceRecord,
    RRSet,
    SoaRdata,
    SrvRdata,
    TxtRdata,
    group_rrsets,
)
from .rrtype import RRClass, RRType

WILDCARD_LABEL = "*"


class LookupKind(enum.Enum):
    ANSWER = "answer"
    CNAME = "cname"
    REFERRAL = "referral"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"


@dataclass
class LookupResult:
    kind: LookupKind
    rrset: Optional[RRSet] = None          # ANSWER / CNAME payload
    authority: list[ResourceRecord] = field(default_factory=list)
    additional: list[ResourceRecord] = field(default_factory=list)
    soa: Optional[ResourceRecord] = None   # negative answers

    @property
    def records(self) -> list[ResourceRecord]:
        rrset = self.rrset
        return rrset.records[:] if rrset is not None else []


class Zone:
    """One zone cut with its RRsets.

    ``origin`` is the apex.  Records for names outside the zone are
    rejected.  NS RRsets owned by names *below* the apex are delegation
    points; lookups under them yield referrals.
    """

    def __init__(self, origin: DnsName | str):
        if isinstance(origin, str):
            origin = make_name(origin)
        self.origin = origin
        #: Labels in the origin: a lookup walks ``len(qname) - depth`` names.
        self._origin_depth = len(origin)
        # ``_rrsets`` is the one store of RRSet objects (the engine's fused
        # corridor reads it directly); add_record/remove_rrset keep the two
        # indexes below in step with it.
        self._rrsets: dict[tuple[DnsName, RRType], RRSet] = {}
        #: owner -> {rtype: RRSet}, both levels in insertion order.
        self._owners: dict[DnsName, dict[RRType, RRSet]] = {}
        #: Every owner and every ancestor of an owner, up to the root, with
        #: the number of owners at or below it: the names that exist,
        #: empty non-terminals included.
        self._extant: dict[DnsName, int] = {}
        #: parent -> the wildcard owner ``*.parent``, for every wildcard
        #: owner of the zone.
        self._wildcards: dict[DnsName, DnsName] = {}

    # -- mutation -------------------------------------------------------------

    def add_record(self, record: ResourceRecord) -> None:
        owner, rtype = record.name, record.rtype
        if not owner.is_subdomain_of(self.origin):
            raise ZoneError(f"{owner} is out of zone {self.origin}")
        owned = self._owners.get(owner)
        if owned is not None:
            if rtype == RRType.CNAME:
                if any(held != RRType.CNAME for held in owned):
                    raise ZoneError(f"CNAME at {owner} conflicts with other data")
            elif RRType.CNAME in owned:
                raise ZoneError(f"{owner} already holds a CNAME")
            rrset = owned.get(rtype)
            if rrset is not None:
                rrset.add(record)
                return
        rrset = RRSet(owner, rtype)
        rrset.add(record)
        self._rrsets[(owner, rtype)] = rrset
        if owned is None:
            owned = self._owners[owner] = {}
            extant = self._extant
            for ancestor in owner.ancestors(include_self=True):
                extant[ancestor] = extant.get(ancestor, 0) + 1
            if owner.labels and owner.labels[0] == WILDCARD_LABEL:
                self._wildcards[owner.parent] = owner
        owned[rtype] = rrset

    def add_records(self, records: Iterable[ResourceRecord]) -> None:
        for record in records:
            self.add_record(record)

    def remove_rrset(self, owner: DnsName, rtype: RRType) -> None:
        """Drop the ``(owner, rtype)`` RRset; a no-op when it is absent.
        Removing an owner's last RRset retires the owner, and any empty
        non-terminal above it that no other owner still holds up."""
        if self._rrsets.pop((owner, rtype), None) is None:
            return
        owned = self._owners[owner]
        del owned[rtype]
        if owned:
            return
        del self._owners[owner]
        if owner.labels and owner.labels[0] == WILDCARD_LABEL:
            del self._wildcards[owner.parent]
        extant = self._extant
        for ancestor in owner.ancestors(include_self=True):
            count = extant[ancestor] - 1
            if count:
                extant[ancestor] = count
            else:
                del extant[ancestor]

    # -- inspection -------------------------------------------------------------

    def get_rrset(self, owner: DnsName, rtype: RRType) -> Optional[RRSet]:
        return self._rrsets.get((owner, rtype))

    def rrsets(self) -> list[RRSet]:
        return list(self._rrsets.values())

    def names(self) -> tuple[DnsName, ...]:
        """Owner names of the zone (names holding at least one RRset, in
        the spelling first added), in canonical DNS order.

        A sorted snapshot rather than a view of the owner index, so callers
        — exporters, figure builders, enumeration sweeps — see an order
        that depends on the names alone, never on insertion history.
        """
        return tuple(sorted(self._owners))

    @property
    def soa(self) -> Optional[ResourceRecord]:
        rrset = self._rrsets.get((self.origin, RRType.SOA))
        if rrset is not None and rrset.records:
            return rrset.records[0]
        return None

    def name_exists(self, qname: DnsName) -> bool:
        """Whether the name exists: it owns an RRset or has a descendant
        that does (an empty non-terminal).  Ancestors above the apex count
        too.  One dictionary lookup, whatever the size of the zone."""
        return qname in self._extant

    def __contains__(self, qname: DnsName) -> bool:
        return self.name_exists(qname)

    # -- delegation -------------------------------------------------------------

    def delegation_point_for(self, qname: DnsName) -> Optional[DnsName]:
        """The closest delegation at or above ``qname`` (below the apex)."""
        if not qname.is_subdomain_of(self.origin):
            return None
        return self._delegation_below_origin(qname)

    def _delegation_below_origin(self, qname: DnsName) -> Optional[DnsName]:
        """:meth:`delegation_point_for` for a ``qname`` known to be in the
        zone: every name strictly between it and the apex is one of its
        first ``len(qname) - len(origin)`` ancestors."""
        rrsets = self._rrsets
        current = qname
        best: Optional[DnsName] = None
        for _ in range(len(qname) - self._origin_depth):
            if (current, RRType.NS) in rrsets:
                best = current
            current = current.parent
        return best

    def _glue_for(self, ns_rrset: RRSet) -> list[ResourceRecord]:
        glue: list[ResourceRecord] = []
        for record in ns_rrset.records:
            assert isinstance(record.rdata, NsRdata)
            target = record.rdata.nsdname
            for rtype in (RRType.A, RRType.AAAA):
                rrset = self._rrsets.get((target, rtype))
                if rrset is not None:
                    glue.extend(rrset.records)
        return glue

    # -- lookup -------------------------------------------------------------

    def lookup(self, qname: DnsName, qtype: RRType) -> LookupResult:
        if not qname.is_subdomain_of(self.origin):
            raise ZoneError(f"{qname} is not within zone {self.origin}")

        delegation = self._delegation_below_origin(qname)
        if delegation is not None:
            ns_rrset = self._rrsets[(delegation, RRType.NS)]
            return LookupResult(
                LookupKind.REFERRAL,
                authority=ns_rrset.records[:],
                additional=self._glue_for(ns_rrset),
            )

        return self._lookup_at(qname, qtype, synthesize_as=None) or \
            self._wildcard_lookup(qname, qtype) or \
            self._negative(qname)

    def _lookup_at(self, owner: DnsName, qtype: RRType,
                   synthesize_as: Optional[DnsName]) -> Optional[LookupResult]:
        """Positive lookup at ``owner``; records are re-owned to
        ``synthesize_as`` for wildcard synthesis.  ``None`` when ``owner``
        does not exist (no RRset at or below it)."""
        if owner not in self._extant:
            return None         # every owner is extant, so nothing is here
        rrsets = self._rrsets
        cname = rrsets.get((owner, RRType.CNAME))
        if cname is not None and cname.records and \
                qtype not in (RRType.CNAME, RRType.ANY):
            return LookupResult(LookupKind.CNAME, rrset=_reown(cname, synthesize_as))
        if qtype == RRType.ANY:
            owned = self._owners.get(owner)
            records = [
                record for rrset in owned.values() for record in rrset.records
            ] if owned else []
            if records:
                rrset = RRSet(owner, records[0].rtype, records=records)
                return LookupResult(LookupKind.ANSWER,
                                    rrset=_reown(rrset, synthesize_as))
            return None
        rrset = rrsets.get((owner, qtype))
        if rrset is not None and rrset.records:
            return LookupResult(LookupKind.ANSWER, rrset=_reown(rrset, synthesize_as))
        return LookupResult(LookupKind.NODATA, soa=self.soa)

    def _wildcard_lookup(self, qname: DnsName, qtype: RRType) -> Optional[LookupResult]:
        # Search for a wildcard at each ancestor within the zone, from
        # ``qname``'s parent up to the apex.
        current = qname
        wildcards = self._wildcards
        for _ in range(len(qname) - self._origin_depth):
            current = current.parent
            wildcard = wildcards.get(current)
            if wildcard is not None:
                result = self._lookup_at(wildcard, qtype, synthesize_as=qname)
                if result is not None and result.kind in (LookupKind.ANSWER, LookupKind.CNAME):
                    return result
                return LookupResult(LookupKind.NODATA, soa=self.soa)
            if current in self._extant:
                # A closer existing name blocks wildcards above it.
                return None
        return None

    def _negative(self, qname: DnsName) -> LookupResult:
        if self.name_exists(qname):
            return LookupResult(LookupKind.NODATA, soa=self.soa)
        return LookupResult(LookupKind.NXDOMAIN, soa=self.soa)


def _reown(rrset: RRSet, new_owner: Optional[DnsName]) -> RRSet:
    if new_owner is None:
        return rrset
    records = []
    for record in rrset.records:
        records.append(ResourceRecord(new_owner, record.rtype, record.ttl,
                                      record.rdata, record.rclass))
    return RRSet(new_owner, rrset.rtype, rrset.rclass, records)


# --------------------------------------------------------------------------
# zone-file text parsing
# --------------------------------------------------------------------------

_DEFAULT_TTL = 300


def _parse_rdata(rtype: RRType, tokens: list[str], origin: DnsName) -> object:
    def absolute(token: str) -> DnsName:
        if token.endswith("."):
            return make_name(token)
        return make_name(token).concatenate(origin)

    if rtype == RRType.A:
        return ARdata(tokens[0])
    if rtype == RRType.AAAA:
        return AaaaRdata(tokens[0])
    if rtype == RRType.NS:
        return NsRdata(absolute(tokens[0]))
    if rtype == RRType.CNAME:
        return CnameRdata(absolute(tokens[0]))
    if rtype == RRType.PTR:
        return PtrRdata(absolute(tokens[0]))
    if rtype == RRType.MX:
        return MxRdata(int(tokens[0]), absolute(tokens[1]))
    if rtype in (RRType.TXT, RRType.SPF):
        return TxtRdata(tuple(token.strip('"') for token in tokens))
    if rtype == RRType.SOA:
        return SoaRdata(
            absolute(tokens[0]), absolute(tokens[1]),
            *(int(token) for token in tokens[2:7]),
        )
    if rtype == RRType.SRV:
        return SrvRdata(int(tokens[0]), int(tokens[1]), int(tokens[2]),
                        absolute(tokens[3]))
    return OpaqueRdata(" ".join(tokens))


def parse_zone_text(text: str, origin: DnsName | str | None = None) -> Zone:
    """Parse a zone fragment in the paper's notation.

    Supports ``$ORIGIN``/``$TTL`` directives, comments (``;``), relative and
    absolute owner names, optional TTL field and the ``IN`` class token.
    """
    import textwrap

    current_origin = make_name(origin) if isinstance(origin, str) else origin
    default_ttl = _DEFAULT_TTL
    pending: list[ResourceRecord] = []
    last_owner: Optional[DnsName] = None
    text = textwrap.dedent(text.strip("\n"))

    for raw_line in text.splitlines():
        line = raw_line.split(";", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        if tokens[0] == "$ORIGIN":
            current_origin = make_name(tokens[1])
            continue
        if tokens[0] == "$TTL":
            default_ttl = int(tokens[1])
            continue
        if current_origin is None:
            raise ZoneParseError("no $ORIGIN and no explicit origin given")

        if raw_line[0] in " \t":
            owner = last_owner
            if owner is None:
                raise ZoneParseError(f"continuation line with no previous owner: {line!r}")
        else:
            owner_token = tokens.pop(0)
            if owner_token == "@":
                owner = current_origin
            elif owner_token.endswith("."):
                owner = make_name(owner_token)
            else:
                owner = make_name(owner_token).concatenate(current_origin)
            last_owner = owner

        ttl = default_ttl
        if tokens and tokens[0].isdigit():
            ttl = int(tokens.pop(0))
        if tokens and tokens[0].upper() in ("IN", "CH"):
            tokens.pop(0)
        if tokens and tokens[0].isdigit():  # TTL may follow the class too
            ttl = int(tokens.pop(0))
        if not tokens:
            raise ZoneParseError(f"missing type in line {line!r}")
        try:
            rtype = RRType.from_text(tokens.pop(0))
        except ValueError as exc:
            raise ZoneParseError(str(exc)) from None
        if not tokens:
            raise ZoneParseError(f"missing rdata in line {line!r}")
        rdata = _parse_rdata(rtype, tokens, current_origin)
        pending.append(ResourceRecord(owner, rtype, ttl, rdata))  # type: ignore[arg-type]

    if current_origin is None:
        raise ZoneParseError("empty zone text")
    zone = Zone(current_origin)
    zone.add_records(pending)
    return zone


def zone_to_text(zone: Zone) -> str:
    """Render a zone back to presentation format (stable order)."""
    lines = [f"$ORIGIN {zone.origin}."]
    for rrset in sorted(zone.rrsets(), key=lambda rs: (rs.name, int(rs.rtype))):
        lines.extend(record.to_text() for record in rrset)
    return "\n".join(lines)


def rrsets_of(records: Iterable[ResourceRecord]) -> list[RRSet]:
    """Re-export of :func:`repro.dns.record.group_rrsets` for convenience."""
    return group_rrsets(records)
