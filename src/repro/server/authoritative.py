"""Authoritative nameservers.

An :class:`AuthoritativeServer` serves one or more zones, answers per the
zone lookup semantics, and logs every arriving query to its
:class:`~repro.server.querylog.QueryLog`.

Two behavioural switches matter to the paper's techniques:

* ``minimal_responses`` — when True, a CNAME answer contains *only* the
  CNAME record, forcing the querying cache to resolve the target itself.
  The CNAME-chain bypass (§IV-B2a) counts caches on those follow-up target
  queries, so the CDE nameservers run with this enabled.
* referral generation — the names-hierarchy bypass (§IV-B2b) counts the
  *referral* queries each cache must make to the parent before it learns
  the delegation; the parent serves NS+glue exactly as the paper's zone
  fragments describe.
"""

from __future__ import annotations

from typing import Optional

from ..dns.edns import maybe_truncate
from ..dns.message import DnsMessage
from ..dns.name import DnsName
from ..dns.record import ResourceRecord
from ..dns.rrtype import RCode, RRType
from ..dns.zone import LookupKind, Zone
from ..net.network import Network
from .querylog import LogEntry, QueryLog


class AuthoritativeServer:
    """A nameserver authoritative for a set of zones."""

    def __init__(self, server_id: str, minimal_responses: bool = False,
                 edns_payload_size: Optional[int] = 4096,
                 rrl_rate: Optional[float] = None, rrl_burst: int = 10):
        self.server_id = server_id
        self.minimal_responses = minimal_responses
        self.edns_payload_size = edns_payload_size
        self.query_log = QueryLog()
        self._zones: list[Zone] = []
        self.online = True  # resilience experiments may take servers down
        #: Response rate limiting: at most ``rrl_rate`` responses/second per
        #: client address, with a burst allowance; excess queries are
        #: silently dropped (BIND RRL ``slip 0`` style).  ``None`` disables.
        self.rrl_rate = rrl_rate
        self.rrl_burst = rrl_burst
        self._rrl_tokens: dict[str, tuple[float, float]] = {}
        self.rrl_dropped = 0

    # -- zone management -------------------------------------------------

    def add_zone(self, zone: Zone) -> None:
        self._zones.append(zone)
        # Keep the most specific origin first for the best-match search.
        self._zones.sort(key=lambda z: len(z.origin), reverse=True)

    def zones(self) -> list[Zone]:
        return list(self._zones)

    def zone_for(self, qname: DnsName) -> Optional[Zone]:
        """The most specific zone containing ``qname``."""
        for zone in self._zones:
            if qname.is_subdomain_of(zone.origin):
                return zone
        return None

    # -- the Endpoint protocol ----------------------------------------------

    def handle_message(self, message: DnsMessage, src_ip: str,
                       network: Network) -> Optional[DnsMessage]:
        if not self.online:
            return None
        question = message.question
        if message.is_response or question is None:
            return None
        if self.rrl_rate is not None and \
                not self._rrl_allow(src_ip, network.clock.now):
            self.rrl_dropped += 1
            return None
        self.query_log.record(LogEntry(network.clock.now, src_ip,
                                       question.qname, question.qtype,
                                       message.msg_id))
        response = self.respond(message)
        return maybe_truncate(message, response, self.edns_payload_size)

    def _rrl_allow(self, src_ip: str, now: float) -> bool:
        """Token bucket per client address."""
        assert self.rrl_rate is not None
        tokens, last = self._rrl_tokens.get(src_ip, (float(self.rrl_burst),
                                                     now))
        tokens = min(float(self.rrl_burst),
                     tokens + (now - last) * self.rrl_rate)
        if tokens < 1.0:
            self._rrl_tokens[src_ip] = (tokens, now)
            return False
        self._rrl_tokens[src_ip] = (tokens - 1.0, now)
        return True

    # -- answer construction -----------------------------------------------

    def respond(self, query: DnsMessage) -> DnsMessage:
        """Build the authoritative response for ``query``."""
        question = query.question
        assert question is not None
        zone = self.zone_for(question.qname)
        # The response echoes the query's EDNS size (no OPT record without
        # one); a query that offers EDNS gets this server's own size, which
        # is None when the server does not speak EDNS.
        if zone is None:
            refused = query.make_response(RCode.REFUSED)
            if query.edns_payload_size is not None:
                refused.edns_payload_size = self.edns_payload_size
            return refused

        result = zone.lookup(question.qname, question.qtype)
        response = query.make_response()
        if query.edns_payload_size is not None:
            response.edns_payload_size = self.edns_payload_size

        kind = result.kind
        if kind == LookupKind.NODATA:
            response.authoritative = True
            if result.soa is not None:
                response.authority.append(result.soa)
        elif kind == LookupKind.ANSWER:
            response.authoritative = True
            assert result.rrset is not None
            response.answers.extend(result.rrset.records)
        elif kind == LookupKind.CNAME:
            response.authoritative = True
            assert result.rrset is not None
            records = result.rrset.records
            response.answers.extend(records)
            if not self.minimal_responses:
                self._chase_cname_in_zone(zone, records[0], query, response)
        elif kind == LookupKind.REFERRAL:
            response.authoritative = False
            response.authority.extend(result.authority)
            response.additional.extend(result.additional)
        else:  # NXDOMAIN
            response.authoritative = True
            response.rcode = RCode.NXDOMAIN
            if result.soa is not None:
                response.authority.append(result.soa)
        return response

    def _chase_cname_in_zone(self, zone: Zone, cname_record: "ResourceRecord",
                             query: DnsMessage, response: DnsMessage,
                             max_depth: int = 8) -> None:
        """Append in-zone CNAME targets to the answer (full responses only)."""
        from ..dns.record import CnameRdata

        depth = 0
        current = cname_record
        while depth < max_depth:
            depth += 1
            assert isinstance(current.rdata, CnameRdata)
            target = current.rdata.target
            if not target.is_subdomain_of(zone.origin):
                return
            if zone.delegation_point_for(target) is not None:
                return
            result = zone.lookup(target, query.qtype)
            if result.kind == LookupKind.ANSWER:
                response.add_answer(result.records)
                return
            if result.kind == LookupKind.CNAME:
                response.add_answer(result.records)
                current = result.records[0]
                continue
            return
