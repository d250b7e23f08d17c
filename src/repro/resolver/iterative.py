"""The iterative resolution engine.

This is the machinery behind a platform's *egress* function: starting from
the root hints (or the deepest cached delegation), walk referrals down the
namespace, chase CNAME chains, and populate the selected cache with every
RRset learned along the way — answers, NS sets, glue and negative answers.

Faithful infrastructure caching is essential to the paper's techniques: the
names-hierarchy bypass (§IV-B2b) counts caches by the *referral* queries
each cache must send to the parent zone exactly once, which only happens if
delegations (NS + glue) are cached and reused.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..dns.errors import (
    CnameLoopError,
    NetworkUnreachable,
    QueryTimeout,
    ReferralLoopError,
    ResolutionError,
)
from ..dns.message import DnsMessage
from ..dns.name import ROOT, DnsName
from ..dns.record import CnameRdata, NsRdata, ResourceRecord, RRSet, group_rrsets
from ..dns.rrtype import RCode, RRType
from ..cache.cache import DnsCache
from ..cache.entry import EntryKind
from ..net.clock import SimClock
from ..net.rng import fallback_rng

MAX_CNAME_DEPTH = 12
MAX_REFERRALS = 24
MAX_GLUELESS_DEPTH = 4

#: Callback used to reach an upstream server.  Takes (server_ip, query) and
#: returns the response — the platform binds this to its egress-IP
#: selection and the network.
SendUpstream = Callable[[str, DnsMessage], DnsMessage]


class AnswerKind(enum.Enum):
    ANSWER = "answer"
    CNAME = "cname"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"


@dataclass
class StepResult:
    kind: AnswerKind
    rrset: Optional[RRSet] = None
    soa: Optional[ResourceRecord] = None


@dataclass
class ResolutionResult:
    """Outcome of resolving one (qname, qtype)."""

    rcode: RCode
    chain: list[RRSet] = field(default_factory=list)  # CNAME links then answer
    soa: Optional[ResourceRecord] = None

    @property
    def records(self) -> list[ResourceRecord]:
        return [record for rrset in self.chain for record in rrset]


class IterativeResolver:
    """Resolves names by walking the authoritative hierarchy.

    One engine instance is shared by a platform; per-resolution state (which
    cache to use, how to send) is passed into :meth:`resolve` so the engine
    itself stays stateless and reusable across caches.  ``clock`` is the
    virtual clock whose ``now`` stamps every cache read and write (a clock
    that never moves when omitted).
    """

    def __init__(self, root_hint_ips: list[str],
                 rng: Optional[random.Random] = None,
                 clock: Optional[SimClock] = None):
        if not root_hint_ips:
            raise ValueError("need at least one root hint")
        self.root_hint_ips = list(root_hint_ips)
        self.rng = rng or fallback_rng("resolver.IterativeResolver")
        self.clock = clock or SimClock()

    # -- public API ---------------------------------------------------------

    def resolve(self, qname: DnsName, qtype: RRType, cache: DnsCache,
                send: SendUpstream) -> ResolutionResult:
        """Resolve a (qname, qtype) that ``cache`` has just missed.

        The caller read ``cache`` at (qname, qtype) and (qname, CNAME) at
        this same virtual instant and found neither, so the first link goes
        straight to the authorities; CNAME targets later in the chain are
        read from the cache first.  Every record learned is written to
        ``cache``.  Raises :class:`ResolutionError` when every path fails
        (SERVFAIL).
        """
        chain: list[RRSet] = []
        # The names of the chain so far, built at its first CNAME link
        # (most resolutions have none).
        seen_names: Optional[set[DnsName]] = None
        current = qname
        for depth in range(MAX_CNAME_DEPTH):
            if depth:
                if seen_names is None:
                    seen_names = {qname}
                seen = len(seen_names)
                seen_names.add(current)
                if len(seen_names) == seen:
                    raise CnameLoopError(f"CNAME loop at {current}")
                step = self._resolve_step(current, qtype, cache, send)
            else:
                step = self._query_authorities(current, qtype, cache, send, 0)
            if step.kind == AnswerKind.ANSWER:
                assert step.rrset is not None
                chain.append(step.rrset)
                return ResolutionResult(RCode.NOERROR, chain)
            if step.kind == AnswerKind.CNAME:
                assert step.rrset is not None
                chain.append(step.rrset)
                target = step.rrset.records[0].rdata
                assert isinstance(target, CnameRdata)
                if qtype == RRType.CNAME:
                    return ResolutionResult(RCode.NOERROR, chain)
                current = target.target
                continue
            if step.kind == AnswerKind.NXDOMAIN:
                return ResolutionResult(RCode.NXDOMAIN, chain, soa=step.soa)
            return ResolutionResult(RCode.NOERROR, chain, soa=step.soa)  # NODATA
        raise CnameLoopError(f"CNAME chain longer than {MAX_CNAME_DEPTH} from {qname}")

    # -- one link of the chain ------------------------------------------------

    def _resolve_step(self, qname: DnsName, qtype: RRType, cache: DnsCache,
                      send: SendUpstream,
                      glueless_depth: int = 0) -> StepResult:
        cached = self._from_cache(qname, qtype, cache)
        if cached is not None:
            return cached
        return self._query_authorities(qname, qtype, cache, send,
                                       glueless_depth)

    def _from_cache(self, qname: DnsName, qtype: RRType,
                    cache: DnsCache) -> Optional[StepResult]:
        now = self.clock.now
        entry = cache.get(qname, qtype, now)
        if entry is not None:
            if entry.kind == EntryKind.POSITIVE:
                return StepResult(AnswerKind.ANSWER, rrset=entry.aged_rrset(now))
            if entry.kind == EntryKind.NXDOMAIN:
                return StepResult(AnswerKind.NXDOMAIN, soa=entry.soa)
            return StepResult(AnswerKind.NODATA, soa=entry.soa)
        if qtype != RRType.CNAME:
            alias = cache.get(qname, RRType.CNAME, now)
            if alias is not None and alias.kind == EntryKind.POSITIVE:
                return StepResult(AnswerKind.CNAME, rrset=alias.aged_rrset(now))
        return None

    # -- walking the hierarchy ------------------------------------------------

    def _query_authorities(self, qname: DnsName, qtype: RRType, cache: DnsCache,
                           send: SendUpstream,
                           glueless_depth: int) -> StepResult:
        zone, server_ips = self._closest_known_authority(qname, cache)
        visited: set[str] = set()
        for _ in range(MAX_REFERRALS):
            response = self._try_servers(qname, qtype, server_ips, visited,
                                         send)
            if response is None:
                raise ResolutionError(
                    f"no authority for {qname} responded (zone {zone})"
                )
            step = self._ingest_response(qname, qtype, response, cache)
            if step is not None:
                return step
            # Referral: descend.
            new_zone = self._referral_zone(response)
            if new_zone is None or not new_zone.is_strict_subdomain_of(zone):
                raise ReferralLoopError(
                    f"non-descending referral for {qname}: {zone} -> {new_zone}"
                )
            zone = new_zone
            server_ips = self._servers_from_referral(response, cache, send,
                                                     glueless_depth)
            visited = set()
            if not server_ips:
                raise ResolutionError(f"referral to {new_zone} has no reachable servers")
        raise ReferralLoopError(f"referral chain exceeded {MAX_REFERRALS} for {qname}")

    def _try_servers(self, qname: DnsName, qtype: RRType, server_ips: list[str],
                     visited: set[str], send: SendUpstream
                     ) -> Optional[DnsMessage]:
        candidates = [ip for ip in server_ips if ip not in visited] \
            if visited else server_ips[:]
        if len(candidates) > 1:     # shuffling one candidate draws nothing
            self.rng.shuffle(candidates)
        for server_ip in candidates:
            visited.add(server_ip)
            query = DnsMessage.make_query(
                qname, qtype,
                msg_id=self.rng.randrange(1 << 16),
                recursion_desired=False,
            )
            try:
                response = send(server_ip, query)
                if response.truncated:
                    response = send(server_ip, query.over_tcp())
            except (QueryTimeout, NetworkUnreachable):
                continue
            if response.rcode in (RCode.NOERROR, RCode.NXDOMAIN):
                return response
        return None

    def _ingest_response(self, qname: DnsName, qtype: RRType,
                         response: DnsMessage, cache: DnsCache
                         ) -> Optional[StepResult]:
        """Cache everything in the response; ``None`` means it is a referral."""
        now = self.clock.now
        nxdomain = response.rcode == RCode.NXDOMAIN
        if not nxdomain:
            answers = response.answers
            if answers:
                if len(answers) == 1:
                    # What group_rrsets builds for one record, without the
                    # grouping dictionary.
                    record = answers[0]
                    answer_sets = [RRSet(record.name, record.rtype,
                                         record.rclass, [record])]
                else:
                    answer_sets = group_rrsets(answers)
                direct = alias = None
                for rrset in answer_sets:
                    cache.put_rrset(rrset, now)
                    # Usually the very name asked for: skip __eq__ then.
                    if direct is None and (rrset.name is qname
                                           or rrset.name == qname):
                        if rrset.rtype == qtype or qtype == RRType.ANY:
                            direct = rrset
                        elif alias is None and rrset.rtype == RRType.CNAME:
                            alias = rrset
                if direct is not None:
                    return StepResult(AnswerKind.ANSWER, rrset=direct)
                if alias is not None:
                    return StepResult(AnswerKind.CNAME, rrset=alias)
                # Answer section without our name — treat as NODATA.
                return StepResult(AnswerKind.NODATA)
            if response.is_referral():
                for rrset in group_rrsets(response.authority):
                    if rrset.rtype == RRType.NS:
                        cache.put_rrset(rrset, now)
                for rrset in group_rrsets(response.additional):
                    if rrset.rtype in (RRType.A, RRType.AAAA):
                        cache.put_rrset(rrset, now)
                return None

        # A negative answer, cached with the first SOA in its authority.
        soa = None
        for record in response.authority:
            if record.rtype == RRType.SOA:
                soa = record
                break
        if nxdomain:
            cache.put_nxdomain(qname, now, soa=soa)
            return StepResult(AnswerKind.NXDOMAIN, soa=soa)
        cache.put_nodata(qname, qtype, now, soa=soa)
        return StepResult(AnswerKind.NODATA, soa=soa)

    def _referral_zone(self, response: DnsMessage) -> Optional[DnsName]:
        ns = response.authority_of_type(RRType.NS)
        return ns[0].name if ns else None

    def _servers_from_referral(self, response: DnsMessage, cache: DnsCache,
                               send: SendUpstream,
                               glueless_depth: int) -> list[str]:
        ips: list[str] = []
        glue = {record.name: record for record in response.additional
                if record.rtype == RRType.A}
        for record in response.authority_of_type(RRType.NS):
            assert isinstance(record.rdata, NsRdata)
            ns_name = record.rdata.nsdname
            glue_record = glue.get(ns_name)
            if glue_record is not None:
                ips.append(glue_record.rdata.address)  # type: ignore[attr-defined]
            else:
                ips.extend(self._resolve_ns_address(ns_name, cache, send,
                                                    glueless_depth))
        return ips

    def _resolve_ns_address(self, ns_name: DnsName, cache: DnsCache,
                            send: SendUpstream,
                            glueless_depth: int) -> list[str]:
        """Glueless delegation: resolve the NS host's A record ourselves."""
        if glueless_depth >= MAX_GLUELESS_DEPTH:
            return []
        try:
            step = self._resolve_step(ns_name, RRType.A, cache, send,
                                      glueless_depth + 1)
        except ResolutionError:
            return []
        if step.kind == AnswerKind.ANSWER and step.rrset is not None:
            return [record.rdata.address for record in step.rrset  # type: ignore[attr-defined]
                    if record.rtype == RRType.A]
        return []

    def _closest_known_authority(self, qname: DnsName, cache: DnsCache
                                 ) -> tuple[DnsName, list[str]]:
        """Deepest zone with a cached NS set whose servers we can address."""
        now = self.clock.now
        zone = qname
        # qname itself, then each ancestor up to and including the root.
        for _ in range(len(qname._labels) + 1):
            entry = cache.get(zone, RRType.NS, now)
            if entry is not None and entry.kind is EntryKind.POSITIVE:
                ips: list[str] = []
                assert entry.rrset is not None
                for record in entry.rrset.records:
                    assert isinstance(record.rdata, NsRdata)
                    address_entry = cache.get(record.rdata.nsdname, RRType.A,
                                              now)
                    if address_entry is not None and \
                            address_entry.kind is EntryKind.POSITIVE:
                        assert address_entry.rrset is not None
                        for address in address_entry.rrset.records:
                            ips.append(address.rdata.address)  # type: ignore[attr-defined]
                if ips:
                    return zone, ips
            parent = zone._parent
            zone = zone.parent if parent is None else parent
        return ROOT, list(self.root_hint_ips)
