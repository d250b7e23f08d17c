"""Stub resolvers with local caches.

When the paper probes platforms *indirectly* (via email servers or web
browsers) "all the queries are triggered by the (stub) DNS software" and
"local caches pose a challenge": each hostname reaches the ingress resolver
at most once until its TTL expires, and query timing cannot be controlled
(§IV-B).  :class:`StubResolver` reproduces exactly that obstacle — it is the
OS-level resolver with its own cache that sits between an application (the
browser or the SMTP daemon) and the platform's ingress address.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..cache.cache import DnsCache
from ..cache.entry import EntryKind
from ..dns.errors import AttemptRecord, ProbeFailure, QueryTimeout
from ..dns.message import DnsMessage
from ..dns.name import DnsName
from ..dns.record import group_rrsets, ResourceRecord
from ..dns.rrtype import RCode, RRType
from ..net.network import Network
from ..net.rng import fallback_rng

if TYPE_CHECKING:
    from ..core.resilient import DegradationTally, RetryPolicy


@dataclass
class StubAnswer:
    rcode: RCode
    records: list[ResourceRecord]
    rtt: float
    from_local_cache: bool

    @property
    def addresses(self) -> list[str]:
        return [record.rdata.address for record in self.records  # type: ignore[attr-defined]
                if record.rtype in (RRType.A, RRType.AAAA)]


class StubResolver:
    """An OS stub resolver bound to one host IP, using a recursive platform.

    ``ingress_ips`` lists the platform addresses from ``resolv.conf``; the
    stub rotates through them on timeouts, like real stubs do.
    """

    def __init__(self, host_ip: str, ingress_ips: list[str], network: Network,
                 local_cache: Optional[DnsCache] = None,
                 rng: Optional[random.Random] = None,
                 retry_policy: Optional["RetryPolicy"] = None,
                 retry_rng: Optional[random.Random] = None,
                 tally: Optional["DegradationTally"] = None):
        if not ingress_ips:
            raise ValueError("stub needs at least one recursive resolver address")
        self.host_ip = host_ip
        self.ingress_ips = list(ingress_ips)
        self.network = network
        self.rng = rng or fallback_rng("resolver.StubResolver")
        # An *active* retry policy repeats the resolv.conf rotation with
        # backoff between rounds (how real stubs behave under `options
        # attempts:n`); None keeps the seed's single rotation.
        self.retry_policy = (retry_policy
                             if retry_policy is not None and retry_policy.active
                             else None)
        self.retry_rng = retry_rng or fallback_rng("resolver.StubResolver.retry")
        self.tally = tally
        # OS caches are small; Windows caps positive entries at 1 day.
        self.local_cache = local_cache or DnsCache(
            cache_id=f"stub@{host_ip}", capacity=4096, max_ttl=86_400,
        )

    def query(self, qname: DnsName, qtype: RRType = RRType.A) -> StubAnswer:
        """Resolve through the local cache, then the platform."""
        start = self.network.clock.now
        now = start
        entry = self.local_cache.get(qname, qtype, now)
        if entry is not None:
            if entry.kind == EntryKind.POSITIVE:
                rrset = entry.aged_rrset(now)
                assert rrset is not None
                return StubAnswer(RCode.NOERROR, list(rrset), 0.0, True)
            rcode = RCode.NXDOMAIN if entry.kind == EntryKind.NXDOMAIN else RCode.NOERROR
            return StubAnswer(rcode, [], 0.0, True)

        message = DnsMessage.make_query(
            qname, qtype, msg_id=self.rng.randrange(1 << 16),
        )
        response = self._transact(message)
        self._cache_response(qname, qtype, response)
        return StubAnswer(
            rcode=response.rcode,
            records=list(response.answers),
            rtt=self.network.clock.now - start,
            from_local_cache=False,
        )

    def _transact(self, message: DnsMessage) -> DnsMessage:
        policy = self.retry_policy
        rounds = policy.max_attempts if policy is not None else 1
        records: list[AttemptRecord] = []
        last_error: Optional[Exception] = None
        attempt = 0
        for round_index in range(rounds):
            if round_index:
                delay = policy.delay_with_jitter(round_index, self.retry_rng) \
                    if policy is not None else 0.0
                if delay:
                    self.network.clock.advance(delay)
                if self.tally is not None:
                    self.tally.retries += 1
            for ingress_ip in self.ingress_ips:
                attempt += 1
                if policy is not None and self.tally is not None:
                    self.tally.attempts += 1
                started = self.network.clock.now
                try:
                    response = self.network.query(self.host_ip, ingress_ip,
                                                  message).response
                    if response.truncated and not message.via_tcp:
                        response = self.network.query(
                            self.host_ip, ingress_ip, message.over_tcp()).response
                    return response
                except QueryTimeout as error:
                    last_error = error
                    records.append(AttemptRecord(attempt, started, "timeout"))
        if policy is not None and self.tally is not None:
            self.tally.gave_up += 1
        raise ProbeFailure(
            f"all resolvers timed out for {message.qname}",
            attempts=tuple(records),
        ) from last_error

    def _cache_response(self, qname: DnsName, qtype: RRType,
                        response: DnsMessage) -> None:
        now = self.network.clock.now
        if response.rcode == RCode.NXDOMAIN:
            self.local_cache.put_nxdomain(qname, now)
            return
        if response.rcode != RCode.NOERROR:
            return
        if response.answers:
            for rrset in group_rrsets(response.answers):
                self.local_cache.put_rrset(rrset, now)
        else:
            self.local_cache.put_nodata(qname, qtype, now)

    def flush_cache(self) -> None:
        self.local_cache.flush()
