"""Forwarding resolvers.

The paper's related-work discussion notes that "ingress resolvers are also
often configured to use upstream caches, such as Google Public DNS, in which
cases the client will only see the forwarder whose sole functionality is to
relay queries, while the complex caching logic is performed by the upstream
cache".  :class:`ForwardingResolver` models exactly this: an addressable
front that optionally keeps a small cache of its own and relays misses to an
upstream platform's ingress address.

From the CDE's perspective a forwarder *with* a cache is one more cache in
the chain; a pure relay is invisible — both cases appear in the wild and the
tests cover what the enumeration techniques report for each.
"""

from __future__ import annotations

import random
from typing import Optional

from ..cache.cache import DnsCache
from ..cache.entry import EntryKind
from ..dns.errors import QueryTimeout
from ..dns.message import DnsMessage
from ..dns.name import DnsName
from ..dns.record import group_rrsets
from ..dns.rrtype import RCode, RRType
from ..net.network import LinkProfile, Network
from ..net.rng import fallback_rng


class ForwardingResolver:
    """Relays client queries to an upstream recursive platform."""

    def __init__(self, name: str, listen_ip: str, upstream_ips: list[str],
                 network: Network, cache: Optional[DnsCache] = None,
                 rng: Optional[random.Random] = None):
        if not upstream_ips:
            raise ValueError("forwarder needs at least one upstream address")
        self.name = name
        self.listen_ip = listen_ip
        self.upstream_ips = list(upstream_ips)
        self.network = network
        self.cache = cache  # None == pure relay, no caching logic at all
        self.rng = rng or fallback_rng("resolver.ForwardingResolver")

    def attach(self, profile: Optional[LinkProfile] = None) -> None:
        self.network.register(self.listen_ip, self, profile)

    # -- Endpoint protocol ---------------------------------------------------

    def handle_message(self, message: DnsMessage, src_ip: str,
                       network: Network) -> Optional[DnsMessage]:
        if message.is_response or message.question is None:
            return None
        now = network.clock.now
        if self.cache is not None:
            cached = self._answer_from_cache(message, now)
            if cached is not None:
                return cached
        upstream_ip = self.upstream_ips[self.rng.randrange(len(self.upstream_ips))]
        try:
            transaction = network.query(self.listen_ip, upstream_ip, message)
        except QueryTimeout:
            return message.make_response(RCode.SERVFAIL)
        response = transaction.response
        if self.cache is not None:
            self._store(message.qname, message.qtype, response)
        return response

    # -- caching ----------------------------------------------------------------

    def _answer_from_cache(self, message: DnsMessage,
                           now: float) -> Optional[DnsMessage]:
        assert self.cache is not None
        entry = self.cache.get(message.qname, message.qtype, now)
        if entry is None:
            return None
        if entry.kind == EntryKind.NXDOMAIN:
            return message.make_response(RCode.NXDOMAIN)
        if entry.kind == EntryKind.NODATA:
            return message.make_response(RCode.NOERROR)
        response = message.make_response()
        response.recursion_available = True
        rrset = entry.aged_rrset(now)
        assert rrset is not None
        response.add_answer(rrset)
        return response

    def _store(self, qname: DnsName, qtype: RRType, response: DnsMessage) -> None:
        assert self.cache is not None
        now = self.network.clock.now
        if response.rcode == RCode.NXDOMAIN:
            self.cache.put_nxdomain(qname, now)
        elif response.rcode == RCode.NOERROR and response.answers:
            for rrset in group_rrsets(response.answers):
                self.cache.put_rrset(rrset, now)
        elif response.rcode == RCode.NOERROR:
            self.cache.put_nodata(qname, qtype, now)


class TransparentForwarder:
    """A relay that forwards queries upstream *as the client*.

    "Transparent Forwarders: An Unnoticed Component of the Open DNS
    Infrastructure" measures ~26% of open DNS speakers as exactly this:
    a box that neither caches nor answers, but re-emits the query toward
    a real resolver with the *client's* source address preserved, so the
    resolver's response (and its access-control decision) applies to the
    client, not to the forwarder.  From the CDE's perspective the
    forwarder is invisible — the platform sees the original client, and
    a closed resolver that serves the client's prefix will happily
    answer a query the forwarder itself could never make.

    No cache, no TTL logic, no rewriting: one spoof-preserving send.
    """

    def __init__(self, name: str, listen_ip: str, upstream_ip: str,
                 network: Network):
        self.name = name
        self.listen_ip = listen_ip
        self.upstream_ip = upstream_ip
        self.network = network
        self.forwarded = 0

    def attach(self, profile: Optional[LinkProfile] = None) -> None:
        self.network.register(self.listen_ip, self, profile)

    # -- Endpoint protocol ---------------------------------------------------

    def handle_message(self, message: DnsMessage, src_ip: str,
                       network: Network) -> Optional[DnsMessage]:
        if message.is_response or message.question is None:
            return None
        self.forwarded += 1
        try:
            # The client's own source address goes upstream unchanged —
            # the spoof-preserving send that defines this component.
            transaction = network.query(src_ip, self.upstream_ip, message)
        except QueryTimeout:
            return message.make_response(RCode.SERVFAIL)
        return transaction.response
