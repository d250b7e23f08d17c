"""Tests for zone data and lookup semantics."""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.infrastructure import CdeInfrastructure
from repro.dns import (
    DnsName,
    LookupKind,
    LookupResult,
    NsRdata,
    ResourceRecord,
    RRSet,
    RRType,
    Zone,
    ZoneError,
    ZoneParseError,
    a_record,
    aaaa_record,
    cname_record,
    mx_record,
    name,
    ns_record,
    parse_zone_text,
    soa_record,
    txt_record,
    zone_to_text,
)
from repro.dns.zone import WILDCARD_LABEL, _reown
from repro.net.network import Network
from repro.server.hierarchy import RootHierarchy


@pytest.fixture
def zone():
    z = Zone("cache.example")
    z.add_record(soa_record(name("cache.example"), name("ns.cache.example"),
                            name("admin.cache.example"), minimum=60))
    z.add_record(ns_record(name("cache.example"), name("ns.cache.example")))
    z.add_record(a_record(name("ns.cache.example"), "203.0.113.53"))
    z.add_record(a_record(name("host.cache.example"), "203.0.113.100"))
    return z


class TestMutation:
    def test_out_of_zone_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_record(a_record(name("other.example"), "1.1.1.1"))

    def test_cname_conflicts_with_data(self, zone):
        with pytest.raises(ZoneError):
            zone.add_record(cname_record(name("host.cache.example"),
                                         name("x.cache.example")))

    def test_data_conflicts_with_cname(self, zone):
        zone.add_record(cname_record(name("alias.cache.example"),
                                     name("host.cache.example")))
        with pytest.raises(ZoneError):
            zone.add_record(a_record(name("alias.cache.example"), "1.1.1.1"))

    def test_remove_rrset(self, zone):
        zone.remove_rrset(name("host.cache.example"), RRType.A)
        result = zone.lookup(name("host.cache.example"), RRType.A)
        assert result.kind == LookupKind.NXDOMAIN

    def test_remove_absent_rrset_is_noop(self, zone):
        before = zone_to_text(zone), zone.names()
        zone.remove_rrset(name("host.cache.example"), RRType.TXT)
        zone.remove_rrset(name("missing.cache.example"), RRType.A)
        assert (zone_to_text(zone), zone.names()) == before
        assert zone.lookup(name("host.cache.example"), RRType.A).kind == \
            LookupKind.ANSWER

    @pytest.mark.parametrize("spelling", ["a.deep.cache.example",
                                          "A.DEEP.Cache.Example"])
    def test_remove_last_rrset_retires_empty_non_terminal(self, zone, spelling):
        zone.add_record(a_record(name("a.deep.cache.example"), "1.1.1.1"))
        deep = name("DEEP.Cache.Example")
        assert zone.name_exists(deep)
        assert zone.lookup(deep, RRType.A).kind == LookupKind.NODATA
        zone.remove_rrset(name(spelling), RRType.A)
        assert not zone.name_exists(deep)
        assert not zone.name_exists(name("a.deep.cache.example"))
        assert zone.lookup(deep, RRType.A).kind == LookupKind.NXDOMAIN
        assert zone.lookup(name("deep.cache.example"), RRType.A).kind == \
            LookupKind.NXDOMAIN
        assert name("a.deep.cache.example") not in zone.names()

    @pytest.mark.parametrize("spelling", ["alias.cache.example",
                                          "ALIAS.Cache.Example"])
    def test_removing_cname_frees_owner_for_data(self, zone, spelling):
        zone.add_record(cname_record(name("alias.cache.example"),
                                     name("host.cache.example")))
        with pytest.raises(ZoneError):
            zone.add_record(a_record(name("Alias.cache.example"), "1.1.1.1"))
        zone.remove_rrset(name(spelling), RRType.CNAME)
        zone.add_record(a_record(name("Alias.cache.example"), "1.1.1.1"))
        result = zone.lookup(name("alias.cache.example"), RRType.A)
        assert result.kind == LookupKind.ANSWER
        assert [str(owner) for owner in zone.names()
                if owner == name("alias.cache.example")] == \
            ["Alias.cache.example"]


class TestLookup:
    def test_answer(self, zone):
        result = zone.lookup(name("host.cache.example"), RRType.A)
        assert result.kind == LookupKind.ANSWER
        assert result.records[0].rdata.address == "203.0.113.100"

    def test_nodata(self, zone):
        result = zone.lookup(name("host.cache.example"), RRType.TXT)
        assert result.kind == LookupKind.NODATA
        assert result.soa is not None

    def test_nxdomain(self, zone):
        result = zone.lookup(name("missing.cache.example"), RRType.A)
        assert result.kind == LookupKind.NXDOMAIN

    def test_empty_non_terminal_is_nodata(self, zone):
        zone.add_record(a_record(name("a.deep.cache.example"), "1.1.1.1"))
        result = zone.lookup(name("deep.cache.example"), RRType.A)
        assert result.kind == LookupKind.NODATA

    def test_cname(self, zone):
        zone.add_record(cname_record(name("alias.cache.example"),
                                     name("host.cache.example")))
        result = zone.lookup(name("alias.cache.example"), RRType.A)
        assert result.kind == LookupKind.CNAME

    def test_cname_qtype_returns_answer(self, zone):
        zone.add_record(cname_record(name("alias.cache.example"),
                                     name("host.cache.example")))
        result = zone.lookup(name("alias.cache.example"), RRType.CNAME)
        assert result.kind == LookupKind.ANSWER

    def test_out_of_zone_lookup_raises(self, zone):
        with pytest.raises(ZoneError):
            zone.lookup(name("www.other.example"), RRType.A)

    def test_apex_ns_is_answer_not_referral(self, zone):
        result = zone.lookup(name("cache.example"), RRType.NS)
        assert result.kind == LookupKind.ANSWER


class TestApexSoa:
    """``Zone.soa`` is the apex SOA record the zone keeps, and every
    negative answer carries that very record."""

    @staticmethod
    def _soa(owner="cache.example", serial=1):
        return soa_record(name(owner), name("ns.cache.example"),
                          name("admin.cache.example"), serial=serial,
                          minimum=60)

    def test_kept_from_first_add_until_removed(self):
        zone = Zone("cache.example")
        assert zone.soa is None
        zone.add_record(a_record(name("host.cache.example"), "192.0.2.1"))
        assert zone.soa is None
        first, second = self._soa(serial=1), self._soa(serial=2)
        zone.add_record(first)
        zone.add_record(second)
        assert zone.soa is first
        zone.remove_rrset(name("cache.example"), RRType.SOA)
        assert zone.soa is None
        zone.add_record(second)
        assert zone.soa is second

    def test_only_the_apex_counts(self):
        zone = Zone("cache.example")
        zone.add_record(self._soa(owner="sub.cache.example"))
        assert zone.soa is None
        apex = self._soa()
        zone.add_record(apex)
        zone.remove_rrset(name("sub.cache.example"), RRType.SOA)
        zone.remove_rrset(name("cache.example"), RRType.A)   # absent
        assert zone.soa is apex

    def test_apex_spelling_does_not_matter(self):
        zone = Zone("cache.example")
        apex = self._soa(owner="Cache.Example")
        zone.add_record(apex)
        assert zone.soa is apex
        zone.remove_rrset(name("CACHE.example"), RRType.SOA)
        assert zone.soa is None

    def test_negative_answers_carry_it(self, zone):
        nodata = zone.lookup(name("host.cache.example"), RRType.TXT)
        nxdomain = zone.lookup(name("missing.cache.example"), RRType.A)
        zone.add_record(a_record(name("a.deep.cache.example"), "192.0.2.2"))
        empty = zone.lookup(name("deep.cache.example"), RRType.A)
        zone.add_record(a_record(name("*.wild.cache.example"), "192.0.2.3"))
        synthesized = zone.lookup(name("x.wild.cache.example"), RRType.TXT)
        assert [r.kind for r in (nodata, nxdomain, empty, synthesized)] == [
            LookupKind.NODATA, LookupKind.NXDOMAIN, LookupKind.NODATA,
            LookupKind.NODATA]
        for result in (nodata, nxdomain, empty, synthesized):
            assert result.soa is zone.soa is not None

    def test_negative_answers_without_soa(self):
        zone = Zone("cache.example")
        zone.add_record(a_record(name("host.cache.example"), "192.0.2.1"))
        assert zone.lookup(name("host.cache.example"), RRType.TXT).soa is None
        assert zone.lookup(name("nx.cache.example"), RRType.A).soa is None


class TestDelegation:
    @pytest.fixture
    def delegated(self, zone):
        zone.add_record(ns_record(name("sub.cache.example"),
                                  name("ns.sub.cache.example")))
        zone.add_record(a_record(name("ns.sub.cache.example"), "203.0.113.99"))
        return zone

    def test_referral_below_cut(self, delegated):
        result = delegated.lookup(name("x.sub.cache.example"), RRType.A)
        assert result.kind == LookupKind.REFERRAL
        assert any(record.rtype == RRType.NS for record in result.authority)

    def test_referral_includes_glue(self, delegated):
        result = delegated.lookup(name("x.sub.cache.example"), RRType.A)
        glue = [record for record in result.additional
                if record.rtype == RRType.A]
        assert glue and glue[0].rdata.address == "203.0.113.99"

    def test_referral_at_cut_itself(self, delegated):
        result = delegated.lookup(name("sub.cache.example"), RRType.A)
        assert result.kind == LookupKind.REFERRAL

    def test_deep_name_below_cut(self, delegated):
        result = delegated.lookup(name("a.b.c.sub.cache.example"), RRType.A)
        assert result.kind == LookupKind.REFERRAL

    def test_delegation_point_for(self, delegated):
        assert delegated.delegation_point_for(
            name("deep.sub.cache.example")) == name("sub.cache.example")
        assert delegated.delegation_point_for(
            name("host.cache.example")) is None

    def test_removed_cut_no_longer_refers(self, delegated):
        """The zone counts its cuts per NS RRset: a second NS record at
        the cut adds none, removing the RRset removes the cut, and an NS
        RRset added at an owner that already holds data makes one."""
        delegated.add_record(ns_record(name("sub.cache.example"),
                                       name("ns2.sub.cache.example")))
        delegated.add_record(ns_record(name("cache.example"),
                                       name("ns.cache.example")))
        delegated.remove_rrset(name("sub.cache.example"), RRType.NS)
        result = delegated.lookup(name("x.sub.cache.example"), RRType.A)
        assert result.kind == LookupKind.NXDOMAIN
        delegated.add_record(txt_record(name("sub.cache.example"), "held"))
        delegated.add_record(ns_record(name("Sub.Cache.Example"),
                                       name("ns.sub.cache.example")))
        result = delegated.lookup(name("x.sub.cache.example"), RRType.A)
        assert result.kind == LookupKind.REFERRAL


class TestWildcard:
    @pytest.fixture
    def wild(self, zone):
        zone.add_record(a_record(name("*.cache.example"), "198.51.100.1"))
        return zone

    def test_wildcard_synthesis(self, wild):
        result = wild.lookup(name("anything.cache.example"), RRType.A)
        assert result.kind == LookupKind.ANSWER
        assert result.records[0].name == name("anything.cache.example")
        assert result.records[0].rdata.address == "198.51.100.1"

    def test_wildcard_multi_label(self, wild):
        result = wild.lookup(name("a.b.cache.example"), RRType.A)
        assert result.kind == LookupKind.ANSWER

    def test_existing_name_beats_wildcard(self, wild):
        result = wild.lookup(name("host.cache.example"), RRType.A)
        assert result.records[0].rdata.address == "203.0.113.100"

    def test_existing_name_blocks_wildcard_below(self, wild):
        # host exists, so below-host names are NXDOMAIN, not wildcard.
        result = wild.lookup(name("below.host.cache.example"), RRType.A)
        assert result.kind == LookupKind.NXDOMAIN

    def test_wildcard_nodata_for_other_type(self, wild):
        result = wild.lookup(name("anything.cache.example"), RRType.TXT)
        assert result.kind == LookupKind.NODATA


class TestZoneParsing:
    def test_parse_paper_cname_fragment(self):
        zone = parse_zone_text(
            """
            $ORIGIN cache.example
            x-1 IN CNAME name.cache.example.
            x-2 IN CNAME name.cache.example.
            name IN A 203.0.113.100
            """
        )
        result = zone.lookup(name("x-1.cache.example"), RRType.A)
        assert result.kind == LookupKind.CNAME

    def test_parse_paper_hierarchy_fragment(self):
        zone = parse_zone_text(
            """
            $ORIGIN cache.example
            sub IN NS ns.sub.cache.example.
            ns.sub IN A 203.0.113.99
            """
        )
        result = zone.lookup(name("x-1.sub.cache.example"), RRType.A)
        assert result.kind == LookupKind.REFERRAL

    def test_parse_with_ttl_and_comment(self):
        zone = parse_zone_text(
            "$ORIGIN e.example\nhost 120 IN A 1.2.3.4 ; comment\n")
        rrset = zone.get_rrset(name("host.e.example"), RRType.A)
        assert rrset.ttl == 120

    def test_parse_at_is_apex(self):
        zone = parse_zone_text("$ORIGIN e.example\n@ IN TXT \"hello\"\n")
        assert zone.get_rrset(name("e.example"), RRType.TXT) is not None

    def test_parse_absolute_owner(self):
        zone = parse_zone_text(
            "$ORIGIN e.example\ndeep.host.e.example. IN A 1.1.1.1\n")
        assert zone.get_rrset(name("deep.host.e.example"), RRType.A)

    def test_parse_default_ttl_directive(self):
        zone = parse_zone_text("$ORIGIN e.example\n$TTL 99\nh IN A 1.1.1.1\n")
        assert zone.get_rrset(name("h.e.example"), RRType.A).ttl == 99

    def test_parse_missing_origin_raises(self):
        with pytest.raises(ZoneParseError):
            parse_zone_text("host IN A 1.2.3.4\n")

    def test_parse_unknown_type_raises(self):
        with pytest.raises(ZoneParseError):
            parse_zone_text("$ORIGIN e.example\nh IN BOGUS data\n")

    def test_roundtrip_to_text(self, zone):
        text = zone_to_text(zone)
        reparsed = parse_zone_text(text)
        assert reparsed.lookup(name("host.cache.example"), RRType.A).kind == \
            LookupKind.ANSWER

    def test_explicit_origin_argument(self):
        zone = parse_zone_text("h IN A 9.9.9.9\n", origin="e.example")
        assert zone.get_rrset(name("h.e.example"), RRType.A)


# --------------------------------------------------------------------------
# The indexed Zone against the original full-scan semantics
# --------------------------------------------------------------------------

class ScanZone:
    """Reference oracle: the zone as it behaved before it kept owner and
    ancestor indexes.  Every "does this name exist / own this type"
    question scans all RRsets or owner names."""

    def __init__(self, origin: DnsName):
        self.origin = origin
        self._rrsets: dict[tuple[DnsName, RRType], RRSet] = {}
        self._names: set[DnsName] = set()

    def add_record(self, record: ResourceRecord) -> None:
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{record.name} is out of zone {self.origin}")
        key = (record.name, record.rtype)
        existing_cname = self._rrsets.get((record.name, RRType.CNAME))
        if record.rtype == RRType.CNAME:
            owns_others = any(
                rname == record.name and rtype != RRType.CNAME
                for (rname, rtype) in self._rrsets
            )
            if owns_others:
                raise ZoneError(f"CNAME at {record.name} conflicts with other data")
        elif existing_cname is not None:
            raise ZoneError(f"{record.name} already holds a CNAME")
        rrset = self._rrsets.get(key)
        if rrset is None:
            rrset = RRSet(record.name, record.rtype)
            self._rrsets[key] = rrset
        rrset.add(record)
        self._names.add(record.name)

    def remove_rrset(self, owner: DnsName, rtype: RRType) -> None:
        self._rrsets.pop((owner, rtype), None)
        if not any(rname == owner for (rname, _) in self._rrsets):
            self._names.discard(owner)

    def names(self) -> tuple[DnsName, ...]:
        return tuple(sorted(self._names))

    @property
    def soa(self) -> Optional[ResourceRecord]:
        rrset = self._rrsets.get((self.origin, RRType.SOA))
        if rrset and rrset.records:
            return rrset.records[0]
        return None

    def name_exists(self, qname: DnsName) -> bool:
        if qname in self._names:
            return True
        return any(existing.is_strict_subdomain_of(qname)
                   for existing in self._names)

    def delegation_point_for(self, qname: DnsName) -> Optional[DnsName]:
        if not qname.is_subdomain_of(self.origin):
            return None
        current = qname
        best: Optional[DnsName] = None
        while current.is_subdomain_of(self.origin) and current != self.origin:
            if (current, RRType.NS) in self._rrsets:
                best = current
            if current.is_root():
                break
            current = current.parent
        return best

    def _glue_for(self, ns_rrset: RRSet) -> list[ResourceRecord]:
        glue: list[ResourceRecord] = []
        for record in ns_rrset:
            assert isinstance(record.rdata, NsRdata)
            for rtype in (RRType.A, RRType.AAAA):
                rrset = self._rrsets.get((record.rdata.nsdname, rtype))
                if rrset:
                    glue.extend(rrset)
        return glue

    def lookup(self, qname: DnsName, qtype: RRType) -> LookupResult:
        if not qname.is_subdomain_of(self.origin):
            raise ZoneError(f"{qname} is not within zone {self.origin}")
        delegation = self.delegation_point_for(qname)
        if delegation is not None:
            ns_rrset = self._rrsets[(delegation, RRType.NS)]
            return LookupResult(LookupKind.REFERRAL, authority=list(ns_rrset),
                                additional=self._glue_for(ns_rrset))
        return self._lookup_at(qname, qtype, synthesize_as=None) or \
            self._wildcard_lookup(qname, qtype) or \
            self._negative(qname)

    def _lookup_at(self, owner: DnsName, qtype: RRType,
                   synthesize_as: Optional[DnsName]) -> Optional[LookupResult]:
        cname = self._rrsets.get((owner, RRType.CNAME))
        if cname and qtype not in (RRType.CNAME, RRType.ANY):
            return LookupResult(LookupKind.CNAME,
                                rrset=_reown(cname, synthesize_as))
        if qtype == RRType.ANY:
            records = [
                record
                for (rname, _), rrset in self._rrsets.items()
                if rname == owner
                for record in rrset
            ]
            if records:
                rrset = RRSet(owner, records[0].rtype, records=records)
                return LookupResult(LookupKind.ANSWER,
                                    rrset=_reown(rrset, synthesize_as))
            return None
        rrset = self._rrsets.get((owner, qtype))
        if rrset:
            return LookupResult(LookupKind.ANSWER,
                                rrset=_reown(rrset, synthesize_as))
        if self.name_exists(owner):
            return LookupResult(LookupKind.NODATA, soa=self.soa)
        return None

    def _wildcard_lookup(self, qname: DnsName,
                         qtype: RRType) -> Optional[LookupResult]:
        if qname == self.origin:
            return None
        current = qname.parent
        while current.is_subdomain_of(self.origin):
            wildcard = current.prepend(WILDCARD_LABEL)
            if any(rname == wildcard for (rname, _) in self._rrsets):
                result = self._lookup_at(wildcard, qtype, synthesize_as=qname)
                if result and result.kind in (LookupKind.ANSWER,
                                              LookupKind.CNAME):
                    return result
                return LookupResult(LookupKind.NODATA, soa=self.soa)
            if self.name_exists(current):
                return None
            if current == self.origin:
                break
            current = current.parent
        return None

    def _negative(self, qname: DnsName) -> LookupResult:
        if self.name_exists(qname):
            return LookupResult(LookupKind.NODATA, soa=self.soa)
        return LookupResult(LookupKind.NXDOMAIN, soa=self.soa)


ORIGIN = "cache.example"
#: Owner names relative to ORIGIN ("" is the apex; a trailing dot marks an
#: absolute, out-of-zone name): empty non-terminals (deep, a.deep),
#: wildcards at three depths, a delegation point with in- and out-of-cut
#: glue targets, and CNAME owners.
OWNERS = ("", "host", "deep", "a.deep", "b.a.deep", "*", "*.deep",
          "*.a.deep", "sub", "ns.sub", "x.sub", "*.sub", "alias", "name",
          "ns", "example.", "other.example.")
GLUE_TARGETS = ("ns.sub", "ns", "host", "x.sub")
RTYPES = (RRType.A, RRType.AAAA, RRType.TXT, RRType.MX, RRType.NS,
          RRType.CNAME, RRType.SOA)
QTYPES = RTYPES + (RRType.ANY,)
QNAMES = tuple(owner for owner in OWNERS if not owner.endswith(".")) + (
    "q.host", "q.deep", "q.r.deep", "zzz", "q.b.a.deep", "q.x.sub",
    "q.alias", "q.*", "HOST", "A.Deep", "DEEP", "Q.Alias")
CASES = ("lower", "upper", "title")


def _spell(relative: str, case: str = "lower") -> DnsName:
    if relative.endswith("."):
        text = relative
    else:
        text = f"{relative}.{ORIGIN}" if relative else ORIGIN
    return name(getattr(text, case)())


def _make_record(owner: DnsName, rtype: RRType, variant: int,
                 ttl: int) -> ResourceRecord:
    target = _spell(GLUE_TARGETS[variant])
    if rtype == RRType.A:
        return a_record(owner, f"192.0.2.{variant}", ttl=ttl)
    if rtype == RRType.AAAA:
        return aaaa_record(owner, f"2001:db8::{variant}", ttl=ttl)
    if rtype == RRType.TXT:
        return txt_record(owner, f"v={variant}", ttl=ttl)
    if rtype == RRType.MX:
        return mx_record(owner, 10 * variant, target, ttl=ttl)
    if rtype == RRType.NS:
        return ns_record(owner, target, ttl=ttl)
    if rtype == RRType.CNAME:
        return cname_record(owner, target, ttl=ttl)
    return soa_record(owner, _spell("ns"), _spell("hostmaster"),
                      serial=variant, ttl=ttl, minimum=60)


def _seeded(cls):
    zone = cls(name(ORIGIN))
    zone.add_record(soa_record(name(ORIGIN), _spell("ns"),
                               _spell("hostmaster"), minimum=60))
    zone.add_record(ns_record(name(ORIGIN), _spell("ns")))
    return zone


def _rr(record: ResourceRecord) -> tuple:
    # str(name) keeps the spelling, so a changed owner spelling shows.
    return (str(record.name), record.rtype, record.ttl, record.rdata,
            record.rclass)


def _outcome(zone, qname: DnsName, qtype: RRType) -> tuple:
    try:
        result = zone.lookup(qname, qtype)
    except ZoneError as exc:
        return ("ZoneError", str(exc))
    rrset = result.rrset
    return (
        result.kind,
        None if rrset is None else (str(rrset.name), rrset.rtype),
        [_rr(record) for record in result.records],
        [_rr(record) for record in result.authority],
        [_rr(record) for record in result.additional],
        None if result.soa is None else _rr(result.soa),
    )


def _mutate(zone, op: tuple) -> Optional[str]:
    kind, owner, case, rtype, variant, ttl = op
    try:
        if kind == "add":
            zone.add_record(_make_record(_spell(owner, case), rtype,
                                         variant, ttl))
        else:
            zone.remove_rrset(_spell(owner, case), rtype)
    except ZoneError as exc:
        return str(exc)
    return None


def _ops_over(owners: list[str]) -> st.SearchStrategy[list[tuple]]:
    """(kind, owner, spelling, rtype, rdata variant, ttl) steps: three adds
    to each removal, weighted towards A and CNAME."""
    return st.lists(
        st.tuples(st.sampled_from(("add", "add", "add", "remove")),
                  st.sampled_from(owners), st.sampled_from(CASES),
                  st.sampled_from(RTYPES + (RRType.A, RRType.CNAME)),
                  st.integers(0, len(GLUE_TARGETS) - 1),
                  st.sampled_from((60, 300))),
        min_size=4, max_size=16,
    )


# Each example works a few owners hard, so that records pile up at one
# owner (CNAME conflicts, multi-type ANY) instead of spreading thin.
_ops = st.lists(st.sampled_from(OWNERS), min_size=1, max_size=5,
                unique=True).flatmap(_ops_over)


class TestIndexedMatchesScan:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(ops=_ops)
    def test_lookup_matches_full_scan_oracle(self, ops):
        zone, oracle = _seeded(Zone), _seeded(ScanZone)
        qnames = [_spell(relative) for relative in QNAMES]
        qnames.append(_spell("other.example."))
        above = [name("example"), name("."), name("other.example")]
        for op in ops:
            assert _mutate(zone, op) == _mutate(oracle, op), op
            assert [str(owner) for owner in zone.names()] == \
                [str(owner) for owner in oracle.names()]
            for qname in qnames + above:
                assert zone.name_exists(qname) == oracle.name_exists(qname)
                assert (qname in zone) == oracle.name_exists(qname)
            for qname in qnames:
                for qtype in QTYPES:
                    assert _outcome(zone, qname, qtype) == \
                        _outcome(oracle, qname, qtype), (op, qname, qtype)


# --------------------------------------------------------------------------
# Lookup cost does not depend on zone size
# --------------------------------------------------------------------------

def _cde_zone(aliases: int) -> tuple[Zone, DnsName, DnsName]:
    """The CDE base zone after ``aliases`` CNAME aliases were planted in
    chains of 50, as a census plants them platform by platform."""
    network = Network()
    infra = CdeInfrastructure(network, RootHierarchy(network))
    chains = [infra.setup_cname_chain(50) for _ in range(aliases // 50)]
    infra.add_a_record(infra.base_domain.prepend("a", "deep"))
    return infra.zone, chains[0].aliases[0], chains[-1].target


def _name_calls(zone: Zone, alias: DnsName, target: DnsName,
                monkeypatch) -> dict[str, int]:
    calls = {"__eq__": 0, "is_subdomain_of": 0}

    def counted(method: str):
        original = getattr(DnsName, method)

        def wrapper(self, other):
            calls[method] += 1
            return original(self, other)
        return wrapper

    # Fresh, never-interned names: no lookup key is identical to a
    # stored key, so every dictionary hit compares names.
    base = zone.origin.labels
    queries = [
        (DnsName(("nx",) + alias.labels), RRType.A, LookupKind.NXDOMAIN, False),
        (DnsName(("DEEP",) + base), RRType.A, LookupKind.NODATA, True),
        (DnsName(("fresh-1",) + base), RRType.A, LookupKind.ANSWER, False),
        (DnsName(("q", "fresh-2") + base), RRType.AAAA, LookupKind.ANSWER,
         False),
        (DnsName(alias.labels), RRType.A, LookupKind.CNAME, True),
        (DnsName(alias.labels), RRType.ANY, LookupKind.ANSWER, True),
        (DnsName(target.labels), RRType.TXT, LookupKind.NODATA, True),
    ]
    with monkeypatch.context() as patch:
        for method in calls:
            patch.setattr(DnsName, method, counted(method))
        for qname, qtype, kind, exists in queries:
            assert zone.lookup(qname, qtype).kind == kind
            assert zone.name_exists(qname) == exists
    return calls


def test_lookup_name_comparisons_independent_of_zone_size(monkeypatch):
    small = _name_calls(*_cde_zone(500), monkeypatch)
    large = _name_calls(*_cde_zone(5000), monkeypatch)
    assert small["__eq__"] > 0 and small["is_subdomain_of"] > 0
    assert small == large
