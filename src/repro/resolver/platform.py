"""DNS resolution platforms (paper Figure 1).

A :class:`ResolutionPlatform` bundles:

* a set of **ingress IP addresses** that accept queries from clients,
* a **load balancer** (a :class:`~repro.resolver.selection.CacheSelector`)
  that picks exactly one of the platform's **n caches** per arriving query,
* a set of **egress IP addresses** used to contact authoritative
  nameservers on cache misses, chosen per-upstream-query by an
  :class:`~repro.resolver.selection.EgressSelector`.

The degenerate single-IP/single-cache platform of the paper's "very simple
version" is just ``PlatformConfig(n_ingress=1, n_caches=1, n_egress=1)``
with ingress and egress sharing the address.

Ground truth (cache count, IP sets, selector) is exposed for experiment
validation but never consulted by the measurement code in
:mod:`repro.core` — that code sees only DNS messages and nameserver logs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional

from ..cache.cache import DnsCache
from ..cache.entry import CacheEntry, EntryKind
from ..cache.software import BIND9_LIKE, CacheSoftwareProfile
from ..dns.edns import maybe_truncate
from ..dns.errors import ResolutionError
from ..dns.message import DnsMessage
from ..dns.name import DnsName
from ..dns.record import CnameRdata, ResourceRecord, RRSet
from ..dns.rrtype import RCode, RRType
from ..net.address import Prefix
from ..net.network import LinkProfile, Network
from ..net.rng import fallback_rng
from .iterative import IterativeResolver, ResolutionResult, SendUpstream
from .selection import (
    CacheSelector,
    EgressSelector,
    QueryContext,
    RandomEgressSelector,
    UniformRandomSelector,
)

MAX_ANSWER_CHAIN = 12


@dataclass
class PlatformConfig:
    """Declarative description of one platform, for generators and tests."""

    name: str
    ingress_ips: list[str]
    egress_ips: list[str]
    n_caches: int
    cache_selector: Optional[CacheSelector] = None
    egress_selector: Optional[EgressSelector] = None
    software_profiles: Optional[list[CacheSoftwareProfile]] = None
    min_ttl: Optional[int] = None
    max_ttl: Optional[int] = None
    country: str = "default"
    operator: str = "unknown"
    #: When set (a prefix like ``"172.16.0.0/12"``), only clients inside it
    #: are served — a *closed* resolver; ``None`` means an open resolver.
    open_to: Optional[str] = None
    #: Frontend deduplication window in seconds: identical questions
    #: arriving within this window of a previous one are answered from the
    #: frontend's short-lived response table *without* probing any cache
    #: (how dnsdist-style frontends collapse query storms).  Zero disables.
    #: Rapid-fire identical probes collapse under this — the census must
    #: pace its probes slower than the window (see the pacing ablation).
    frontend_dedup_window: float = 0.0
    #: Prefetch horizon in seconds: a cache hit whose remaining TTL is at
    #: or below this triggers an upstream refresh (BIND's ``prefetch`` /
    #: Unbound's ``prefetch: yes``).  The client still gets the cached
    #: answer; the refresh shows up at authoritative servers as an extra
    #: query — a census bias the tests document.  Zero disables.
    prefetch_horizon: float = 0.0
    #: Advertised EDNS(0) UDP payload size; ``None`` = no EDNS support.
    edns_payload_size: Optional[int] = 4096

    def __post_init__(self) -> None:
        if not self.ingress_ips:
            raise ValueError("platform needs at least one ingress IP")
        if not self.egress_ips:
            raise ValueError("platform needs at least one egress IP")
        if self.n_caches < 1:
            raise ValueError("platform needs at least one cache")
        # The window DnsCache enforces: 0 <= min_ttl <= max_ttl.
        low = 0 if self.min_ttl is None else self.min_ttl
        if low < 0 or (self.max_ttl is not None and self.max_ttl < low):
            raise ValueError("need 0 <= min_ttl <= max_ttl")


@dataclass
class PlatformStats:
    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    upstream_queries: int = 0
    failures: int = 0
    frontend_collapsed: int = 0
    prefetches: int = 0


class ResolutionPlatform:
    """A multi-cache recursive resolution service."""

    def __init__(self, config: PlatformConfig, network: Network,
                 root_hint_ips: list[str],
                 rng: Optional[random.Random] = None):
        self.config = config
        self.network = network
        self.rng = rng or fallback_rng("resolver.ResolutionPlatform")
        self.cache_selector: CacheSelector = (
            config.cache_selector or UniformRandomSelector(self.rng)
        )
        self.egress_selector: EgressSelector = (
            config.egress_selector or RandomEgressSelector(self.rng)
        )
        self.caches = self._build_caches(config)
        self.engine = IterativeResolver(root_hint_ips, rng=self.rng,
                                        clock=network.clock)
        self.stats = PlatformStats()
        #: How each cache reaches upstream servers, built at its first miss.
        self._senders: dict[DnsCache, SendUpstream] = {}
        self._sequence = 0
        #: caches listed here are "down" — resilience experiments (§II-B).
        self._offline_caches: set[int] = set()
        #: frontend dedup table: (qname, qtype) -> (expires_at, rcode,
        #: answer records) of the last resolved answer.
        self._frontend_table: dict[
            tuple[DnsName, RRType],
            tuple[float, RCode, list[ResourceRecord]]] = {}

    def _build_caches(self, config: PlatformConfig) -> list[DnsCache]:
        caches = []
        for index in range(config.n_caches):
            profile = BIND9_LIKE
            if config.software_profiles:
                profile = config.software_profiles[index % len(config.software_profiles)]
            cache = profile.build_cache(
                cache_id=f"{config.name}/cache-{index}",
                rng=random.Random(self.rng.randrange(1 << 30)),
            )
            if config.min_ttl is not None:
                cache.min_ttl = config.min_ttl
            if config.max_ttl is not None:
                cache.max_ttl = max(config.max_ttl, cache.min_ttl)
            caches.append(cache)
        return caches

    # -- registration ---------------------------------------------------------

    def attach(self, profile: Optional[LinkProfile] = None) -> None:
        """Register all ingress and egress IPs on the network."""
        ingress = self.config.ingress_ips
        self.network.register_many(list(ingress), self, profile)
        egress = [ip for ip in self.config.egress_ips if ip not in ingress]
        self.network.register_many(egress, _EgressStub(), profile)

    # -- ground truth (experiments only) ------------------------------------------

    @property
    def n_caches(self) -> int:
        return self.config.n_caches

    @property
    def n_online_caches(self) -> int:
        return self.config.n_caches - len(self._offline_caches)

    @property
    def ingress_ips(self) -> list[str]:
        return list(self.config.ingress_ips)

    @property
    def egress_ips(self) -> list[str]:
        return list(self.config.egress_ips)

    def take_cache_offline(self, index: int) -> None:
        if not 0 <= index < len(self.caches):
            raise IndexError(f"no cache {index}")
        self._offline_caches.add(index)

    def bring_cache_online(self, index: int) -> None:
        self._offline_caches.discard(index)

    # -- the Endpoint protocol ----------------------------------------------------

    def handle_message(self, message: DnsMessage, src_ip: str,
                       network: Network) -> Optional[DnsMessage]:
        if message.is_response or message.question is None:
            return None
        if self.config.open_to is not None:
            if not _open_to_prefix(self.config.open_to).contains(src_ip):
                return message.make_response(RCode.REFUSED)
        if not message.recursion_desired:
            # We are a resolver, not an authority.
            response = message.make_response(RCode.REFUSED)
            response.recursion_available = True
            return response
        return self.resolve_for_client(message, src_ip)

    # -- query pipeline -------------------------------------------------------------

    def resolve_for_client(self, query: DnsMessage, src_ip: str) -> DnsMessage:
        """Full ingress→cache→(egress) pipeline for one client query."""
        self.stats.queries += 1
        if self.config.frontend_dedup_window > 0:
            collapsed = self._frontend_lookup(query)
            if collapsed is not None:
                return collapsed
        self._sequence += 1
        question = query.question
        assert question is not None
        qname, qtype = question.qname, question.qtype
        cache = self._pick_cache(
            QueryContext(qname, qtype, src_ip, self._sequence))
        if cache is None:
            self.stats.failures += 1
            return query.make_response(RCode.SERVFAIL)
        # Intra-platform hop: negligible but nonzero (SimClock.advance of
        # a positive constant, inline).
        self.network.clock.now += 0.0002
        try:
            chain, rcode = self._answer_from(cache, qname, qtype)
        except ResolutionError:
            self.stats.failures += 1
            response = query.make_response(RCode.SERVFAIL)
            response.recursion_available = True
            return response
        answers: list[ResourceRecord] = []
        for rrset in chain:
            answers.extend(rrset.records)
        if self.config.frontend_dedup_window > 0:
            self._frontend_store(query, rcode, answers)
        return self._client_response(query, rcode, answers)

    def _client_response(self, query: DnsMessage, rcode: RCode,
                         answers: list[ResourceRecord]) -> DnsMessage:
        """The platform's answer to ``query``: ``answers`` under ``rcode``,
        this platform's EDNS size when the query offers EDNS, and UDP
        truncation to the payload limit in force.  Resolved and
        frontend-collapsed answers are both built here, so a collapsed
        answer negotiates and truncates for the client that asked."""
        response = query.make_response(rcode)
        response.recursion_available = True
        if query.edns_payload_size is not None:
            response.edns_payload_size = self.config.edns_payload_size
        response.answers = answers
        return maybe_truncate(query, response, self.config.edns_payload_size)

    def _frontend_lookup(self, query: DnsMessage) -> Optional[DnsMessage]:
        """Answer from the frontend's collapse table, when fresh."""
        key = (query.qname, query.qtype)
        entry = self._frontend_table.get(key)
        if entry is None:
            return None
        expires_at, rcode, answers = entry
        if self.network.clock.now >= expires_at:
            del self._frontend_table[key]
            return None
        self.stats.frontend_collapsed += 1
        return self._client_response(query, rcode, list(answers))

    def _frontend_store(self, query: DnsMessage, rcode: RCode,
                        answers: list[ResourceRecord]) -> None:
        self._frontend_table[(query.qname, query.qtype)] = (
            self.network.clock.now + self.config.frontend_dedup_window,
            rcode, answers,
        )

    def _pick_cache(self, context: QueryContext) -> Optional[DnsCache]:
        """Load-balance to one online cache; exactly one cache is probed."""
        offline = self._offline_caches
        if offline:
            online = [index for index in range(len(self.caches))
                      if index not in offline]
            if not online:
                return None
        index = self.cache_selector.select(context, len(self.caches))
        if index in offline:
            # Fail over deterministically to the next online cache.
            index = online[index % len(online)]
        return self.caches[index]

    def _answer_from(self, cache: DnsCache,
                     qname: DnsName, qtype: RRType
                     ) -> tuple[list[RRSet], RCode]:
        """Answer (qname, qtype) using ``cache``, going upstream on misses.

        Follows CNAME links through the cache so a partially cached chain
        only triggers upstream traffic for the missing links.
        """
        now = self.network.clock.now
        chain: list[RRSet] = []
        current = qname
        for _ in range(MAX_ANSWER_CHAIN):
            entry = cache.get(current, qtype, now)
            if entry is not None:
                if entry.kind == EntryKind.NXDOMAIN:
                    self.stats.cache_hits += 1
                    return chain, RCode.NXDOMAIN
                if entry.kind == EntryKind.NODATA:
                    self.stats.cache_hits += 1
                    return chain, RCode.NOERROR
                self.stats.cache_hits += 1
                rrset = entry.aged_rrset(now)
                assert rrset is not None
                chain.append(rrset)
                self._maybe_prefetch(cache, current, qtype, entry)
                return chain, RCode.NOERROR
            if qtype != RRType.CNAME:
                alias = cache.get(current, RRType.CNAME, now)
                if alias is not None and alias.kind == EntryKind.POSITIVE:
                    self.stats.cache_hits += 1
                    rrset = alias.aged_rrset(now)
                    assert rrset is not None
                    chain.append(rrset)
                    target = rrset.records[0].rdata
                    assert isinstance(target, CnameRdata)
                    current = target.target
                    continue
            # Miss: resolve the remaining chain upstream through this cache.
            self.stats.cache_misses += 1
            result = self._resolve_upstream(cache, current, qtype)
            chain.extend(self._serve_from_cache(cache, result.chain))
            return chain, result.rcode
        return chain, RCode.SERVFAIL

    def _maybe_prefetch(self, cache: DnsCache, qname: DnsName,
                        qtype: RRType, entry: "CacheEntry") -> None:
        """Refresh a nearly expired entry after serving it (BIND-style).

        The client sees the cached answer; the refresh is an extra
        authoritative-side query that cache-counting studies must not
        mistake for a new cache.
        """
        horizon = self.config.prefetch_horizon
        if horizon <= 0:
            return
        now = self.network.clock.now
        if entry.remaining_ttl(now) > horizon:
            return
        self.stats.prefetches += 1
        cache.remove(qname, qtype)
        try:
            self._resolve_upstream(cache, qname, qtype)
        except ResolutionError:
            pass  # prefetch is best-effort; the old answer already went out

    def _serve_from_cache(self, cache: DnsCache,
                          resolved_chain: list[RRSet]) -> list[RRSet]:
        """Re-read freshly resolved RRsets through the cache.

        Real resolvers always answer from cache contents, so the response
        TTLs reflect the cache's min/max clamping and aging — the externally
        observable behaviour that cache fingerprinting (§II-C) measures.
        RRsets the cache did not retain (capacity pressure) pass through
        unchanged.
        """
        now = self.network.clock.now
        served: list[RRSet] = []
        for rrset in resolved_chain:
            entry = cache.peek(rrset.name, rrset.rtype, now)
            if entry is not None and entry.kind == EntryKind.POSITIVE and \
                    entry.rrset is not None:
                aged = entry.aged_rrset(now)
                assert aged is not None
                served.append(aged)
            else:
                served.append(rrset)
        return served

    def _resolve_upstream(self, cache: DnsCache, qname: DnsName,
                          qtype: RRType) -> ResolutionResult:
        """Resolve (qname, qtype), which ``cache`` has just missed."""
        send = self._senders.get(cache)
        if send is None:
            send = self._senders[cache] = self._sender(cache)
        return self.engine.resolve(qname, qtype, cache, send)

    def _sender(self, cache: DnsCache) -> SendUpstream:
        """The upstream send of ``cache``: one egress address drawn per
        send, then one network transaction from it."""
        egress_ips = self.config.egress_ips
        query = self.network.query
        stats = self.stats
        select_for_cache = getattr(self.egress_selector, "select_for_cache",
                                   None)
        select: Callable[[str, int], int]
        if select_for_cache is None:
            select = self.egress_selector.select
        else:
            cache_index = next(
                (i for i, c in enumerate(self.caches) if c is cache), 0)
            select = partial(select_for_cache, cache_index)

        def send(server_ip: str, message: DnsMessage) -> DnsMessage:
            # The pool is sized per send: addresses can leave it while the
            # platform runs.
            transaction = query(
                egress_ips[select(server_ip, len(egress_ips))],
                server_ip, message)
            stats.upstream_queries += 1
            return transaction.response

        return send

    def __repr__(self) -> str:
        return (f"ResolutionPlatform({self.config.name!r}, "
                f"ingress={len(self.config.ingress_ips)}, "
                f"caches={self.config.n_caches}, "
                f"egress={len(self.config.egress_ips)})")


@lru_cache(maxsize=64)
def _open_to_prefix(open_to: str) -> Prefix:
    """``PlatformConfig.open_to`` parsed once per distinct value."""
    return Prefix.from_text(open_to)


class _EgressStub:
    """Placeholder endpoint registered at egress-only addresses.

    Egress addresses originate queries; they never serve any, so anything
    arriving at one is dropped silently (as a real NAT'd resolver farm would).
    """

    def handle_message(self, message: DnsMessage, src_ip: str,
                       network: Network) -> Optional[DnsMessage]:
        return None
