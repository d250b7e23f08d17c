"""Misbehaving resolvers.

The paper's dataset deliberately "excludes malicious networks and home
networks" (§III-A), citing studies that found most open resolvers to be
"(misconfigured) home routers and mismanaged (security oblivious) networks
or malicious networks operated by attackers" (§VI, refs [19], [20]).  To
exclude them, a scan must be able to *detect* them.

:class:`MisbehavingResolver` wraps a well-behaved platform with the classic
pathologies those studies observed:

* **NXDOMAIN hijacking** — rewriting name errors into ad-server addresses;
* **answer substitution** — redirecting specific names (DNS injection);
* **TTL rewriting** — pinning every answer's TTL to a fixed value.

:mod:`repro.core.integrity` holds the corresponding detection checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..dns.message import DnsMessage
from ..dns.name import DnsName
from ..dns.record import ARdata, ResourceRecord
from ..dns.rrtype import RCode, RRType
from ..net.network import LinkProfile, Network


@dataclass
class Misbehavior:
    """Which pathologies the wrapper applies."""

    hijack_nxdomain_to: Optional[str] = None      # ad-server address
    substitute: dict[str, str] = field(default_factory=dict)  # name -> IP
    rewrite_ttl_to: Optional[int] = None

    @property
    def any_active(self) -> bool:
        return bool(self.hijack_nxdomain_to or self.substitute or
                    self.rewrite_ttl_to is not None)


class MisbehavingResolver:
    """A resolver front that tampers with its upstream's answers."""

    def __init__(self, listen_ip: str, upstream_ip: str, network: Network,
                 misbehavior: Misbehavior):
        self.listen_ip = listen_ip
        self.upstream_ip = upstream_ip
        self.network = network
        self.misbehavior = misbehavior
        self.tampered_responses = 0

    def attach(self, profile: Optional[LinkProfile] = None) -> None:
        self.network.register(self.listen_ip, self, profile)

    def handle_message(self, message: DnsMessage, src_ip: str,
                       network: Network) -> Optional[DnsMessage]:
        if message.is_response or message.question is None:
            return None
        from ..dns.errors import QueryTimeout

        try:
            response = network.query(self.listen_ip, self.upstream_ip,
                                     message).response
        except QueryTimeout:
            return message.make_response(RCode.SERVFAIL)
        return self._tamper(message, response)

    # -- pathologies ------------------------------------------------------

    def _tamper(self, query: DnsMessage, response: DnsMessage) -> DnsMessage:
        tampered = False
        substitute_ip = self._substitution_for(query.qname)
        if substitute_ip is not None and query.qtype == RRType.A:
            response = query.make_response()
            response.recursion_available = True
            response.add_answer([self._forged_a(query.qname, substitute_ip)])
            tampered = True
        elif response.rcode == RCode.NXDOMAIN and \
                self.misbehavior.hijack_nxdomain_to is not None and \
                query.qtype == RRType.A:
            response = query.make_response()  # NOERROR
            response.recursion_available = True
            response.add_answer([self._forged_a(
                query.qname, self.misbehavior.hijack_nxdomain_to)])
            tampered = True
        if self.misbehavior.rewrite_ttl_to is not None and response.answers:
            # Deliberate §VI misbehaviour: this resolver exists to serve
            # the wrong TTL, which honest cache code never does.
            response.answers = [
                record.with_ttl(self.misbehavior.rewrite_ttl_to)
                for record in response.answers
            ]
            tampered = True
        if tampered:
            self.tampered_responses += 1
        return response

    def _substitution_for(self, qname: DnsName) -> Optional[str]:
        for target, address in self.misbehavior.substitute.items():
            if qname == DnsName.from_text(target):
                return address
        return None

    @staticmethod
    def _forged_a(owner: DnsName, address: str) -> ResourceRecord:
        return ResourceRecord(owner, RRType.A, 300, ARdata(address))
