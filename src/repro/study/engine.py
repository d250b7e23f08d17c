"""Shard lanes and the fused probe corridor (the measurement engine).

* Each shard becomes a :class:`ShardLane`: one independent world whose
  :meth:`ShardLane.step` builds, measures and retires one platform and
  returns its row.  A lane is strictly sequential: its platforms share one
  clock, one RNG factory and one address allocator, so their order is part
  of the seeded determinism and must not change.  Lanes' worlds are fully
  independent, so the order in which a driver steps *different* lanes
  cannot change any row.  Two drivers exist:
  :func:`~repro.study.parallel.run_shard` steps one lane to completion (a
  pool worker, or a test), and the in-process stream steps whichever lane
  owns the next spec position.
* Open resolvers are measured by the one direct procedure,
  :func:`~repro.study.measurement.measure_direct` (adaptive enumeration,
  then the egress census).  The lane only chooses how each probe reaches
  the platform.  The hot path is a **fused corridor**
  (:class:`_FastPlan` / :func:`_fused_probe`): for the common
  prober → open platform → CDE nameserver path it replicates the exact
  mutation sequence of the real object-per-message code — every RNG draw,
  every clock advance, every stats/log update — while skipping all
  ``DnsMessage`` construction, response assembly and truncation checks.
  Three tiers serve the platform side: the ``_answer_from`` chain walk
  when the chosen cache already holds the name (:func:`_fused_resolve_chain`),
  the warm corridor memo that collapses the zone lookup and authority
  walk, and the captured referral chain replayed into an empty cache
  (:class:`_ColdChain`).  A platform that fails a precondition of
  :meth:`_FastPlan.build` (retry policies, fault injectors, closed
  resolvers, frontend dedup, links that do not compile...)
  takes the structured path for every probe; an upstream no tier covers
  (a stale memo, a declined chain) runs the real ``_resolve_upstream``
  from exactly the point the real code would.  The replication is pinned
  at run time: ``TestFusedCorridorEquivalence`` in
  ``tests/test_study_parallel.py`` runs hypothesis-drawn shards with the
  fast plan on and off and compares every counter, cache entry, RNG
  stream and log entry.

The fast path rests on one structural fact the engine controls: corridor
probe names come from ``cde.unique_name``/``unique_names`` *immediately*
before probing, so they are fresh children of the CDE base domain that no
cache, zone or log has ever seen.  Every cache lookup at such a name is a
provable miss and the zone answer is pure wildcard synthesis.  Arrivals
are logged through :meth:`QueryLog.record`, which owns the log's indexes.
The fast path verifies the cheap invariants per probe (entry identity,
wildcard RRset identity, key absence) and falls back wholesale when any
fails.

Determinism is the contract: driving a :class:`ShardLane` to completion
produces rows byte-identical to
``measure_population(SimulatedInternet(task.config), list(task.specs),
task.budget)``.  ``tests/test_study_parallel.py`` and
``tests/test_faults_deterministic.py`` pin this across worker counts and
fault profiles.
"""

from __future__ import annotations

import time
from math import exp
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..cache.cache import DnsCache
from ..cache.entry import CacheEntry, EntryKind
from ..dns.edns import maybe_truncate
from ..dns.errors import ResolutionError
from ..dns.message import DnsMessage
from ..dns.name import ROOT, DnsName
from ..dns.record import (
    CnameRdata,
    NsRdata,
    ResourceRecord,
    RRSet,
    group_rrsets,
)
from ..dns.rrtype import RCode, RRClass, RRType
from ..dns.zone import WILDCARD_LABEL, Zone
from ..net.network import LinkParams, Network
from ..net.perf import ShardPerf, snapshot_stats, stats_delta
from ..resolver.platform import MAX_ANSWER_CHAIN, ResolutionPlatform
from ..resolver.selection import (
    QnameHashSelector,
    QueryContext,
    RandomEgressSelector,
    RoundRobinSelector,
    SourceIpHashSelector,
    UniformRandomSelector,
    _stable_hash,
)
from ..server.authoritative import AuthoritativeServer
from ..server.querylog import LogEntry, QueryLog
from .internet import HostedPlatform, SimulatedInternet
from .measurement import MEASURES, PlatformMeasurement, measure_direct

if TYPE_CHECKING:
    from .parallel import ShardTask

_DEFAULT_TIMEOUT = Network.DEFAULT_TIMEOUT
_DEFAULT_RETRIES = Network.DEFAULT_RETRIES

#: Warm-corridor memo: the cached (base, NS) and (ns, A) entries.
_CorridorMemo = tuple[CacheEntry, CacheEntry]
#: Wildcard template: (rrsets key, RRSet, record count, records, min TTL).
_Template = tuple[tuple[DnsName, RRType], RRSet, int,
                  tuple[ResourceRecord, ...], int]
#: One referral hop of the cold-resolution chain:
#: (server, zone-name for the error message, dst link params, and the
#: RRsets its referral response makes the resolver cache).
_ColdLevel = tuple[AuthoritativeServer, DnsName, LinkParams,
                   tuple[RRSet, ...]]
#: Zone-shape token guarding a captured chain: (server, zone, zone count,
#: rrset count).  Any mismatch forces a re-capture before the next replay.
_ColdToken = tuple[AuthoritativeServer, Zone, int, int]

_POSITIVE = EntryKind.POSITIVE


class _ColdChain:
    """Captured referral chain from the root hints down to the CDE server.

    The chain is world-level state (root hints, endpoint map, shared
    zones), and every platform resolves from the world's root hints, so
    one capture serves every platform plan in a lane.  The first cold
    replay captures it; :meth:`valid` revalidates the zone-shape tokens
    before each replay and re-captures when population construction grew
    a shared zone.

    ``AuthoritativeServer.respond`` is pure, so the chain can be probed
    offline with a synthetic corridor name.  The capture label is the
    longest legal one: every real probe name is no longer, so a response
    that fits the truncation limit here proves every real response fits
    too.  Referral sections do not depend on the probed name (only the
    question does, which ingest ignores), so the captured RRsets replay
    verbatim for any corridor name.  On any structural surprise — multiple
    roots or candidate servers, glueless delegations, truncation, a
    non-wildcard answer, a link that does not compile — the capture
    declines and cold resolutions stay on the real path.
    """

    __slots__ = ("network", "server", "ns_ip", "base_domain", "root_hints",
                 "zone", "template", "a_key", "levels", "tokens")

    def __init__(self, world: SimulatedInternet) -> None:
        self.network: Network = world.network
        self.server: AuthoritativeServer = world.cde.server
        self.ns_ip: str = world.cde.ns_ip
        self.base_domain: DnsName = world.cde.base_domain
        self.root_hints: list[str] = world.hierarchy.root_hints
        self.zone: Optional[Zone] = None
        self.template: Optional[_Template] = None
        self.a_key: Optional[tuple[DnsName, RRType]] = None
        self.levels: Optional[list[_ColdLevel]] = None
        #: ``None`` until the first capture; a declined capture leaves it
        #: empty, and the chain stays declined.
        self.tokens: Optional[list[_ColdToken]] = None

    def capture(self) -> None:
        self.levels = None
        self.tokens = []
        if len(self.root_hints) != 1:
            return
        probe = self.base_domain.prepend("z" * 63)
        levels: list[_ColdLevel] = []
        tokens: list[_ColdToken] = []
        server_ip = self.root_hints[0]
        zone_name = ROOT
        for _ in range(4):
            endpoint = self.network.endpoint_at(server_ip)
            if not isinstance(endpoint, AuthoritativeServer):
                return
            if not endpoint.online or endpoint.rrl_rate is not None:
                return
            params = self.network.link_of(server_ip)
            if params is None:
                return
            zone = endpoint.zone_for(probe)
            if zone is None:
                return
            query = DnsMessage.make_query(probe, RRType.A, msg_id=0,
                                          recursion_desired=False)
            response = endpoint.respond(query)
            if maybe_truncate(query, response,
                              endpoint.edns_payload_size) is not response:
                return
            tokens.append((endpoint, zone, len(endpoint.zones()),
                           len(zone._rrsets)))
            if endpoint is self.server and server_ip == self.ns_ip:
                # Final hop: the answer must be pure wildcard synthesis.
                if response.rcode != RCode.NOERROR or not response.answers:
                    return
                wkey = (self.base_domain.prepend(WILDCARD_LABEL), RRType.A)
                wset = zone._rrsets.get(wkey)
                if wset is None or not wset.records:
                    return
                if response.answers != [
                        ResourceRecord(probe, record.rtype, record.ttl,
                                       record.rdata, record.rclass)
                        for record in wset.records]:
                    return
                self.zone = zone
                self.template = (wkey, wset, len(wset.records),
                                 tuple(wset.records),
                                 min(record.ttl for record in wset.records))
                self.levels = levels
                self.tokens = tokens
                return
            if response.rcode != RCode.NOERROR or response.answers:
                return
            if not response.is_referral():
                return
            ns_sets = response.authority_of_type(RRType.NS)
            if not ns_sets:
                return
            new_zone = ns_sets[0].name
            if not new_zone.is_strict_subdomain_of(zone_name):
                return
            ingest = [rrset for rrset in group_rrsets(response.authority)
                      if rrset.rtype == RRType.NS]
            ingest.extend(rrset for rrset in group_rrsets(response.additional)
                          if rrset.rtype in (RRType.A, RRType.AAAA))
            glue = {record.name: record for record in response.additional
                    if record.rtype == RRType.A}
            next_ips: list[str] = []
            for record in response.authority_of_type(RRType.NS):
                if not isinstance(record.rdata, NsRdata):
                    return
                glue_record = glue.get(record.rdata.nsdname)
                if glue_record is None:
                    return          # glueless hop: real path only
                next_ips.append(glue_record.rdata.address)  # type: ignore[attr-defined]
            if len(next_ips) != 1:
                return
            if new_zone == self.base_domain:
                # The hop that teaches the corridor: remember its keys.
                if len(ns_sets) != 1 or len(ingest) != 2:
                    return
                first = ns_sets[0]
                assert isinstance(first.rdata, NsRdata)
                self.a_key = (first.rdata.nsdname, RRType.A)
            levels.append((endpoint, zone_name, params, tuple(ingest)))
            zone_name = new_zone
            server_ip = next_ips[0]
        return

    def valid(self) -> bool:
        """Cheap per-resolve check that no captured zone changed shape.

        Population construction can add delegations to the shared root/TLD
        zones between platforms; growth shows up as a new zone or RRset
        count and triggers a re-capture.
        """
        if self.tokens is None:
            self.capture()              # the first replay captures
        if self.levels is None:
            return False
        assert self.tokens is not None
        for server, zone, n_zones, n_rrsets in self.tokens:
            if not server.online or len(server.zones()) != n_zones or \
                    len(zone._rrsets) != n_rrsets:
                self.capture()
                return self.levels is not None
        return True


class _FastPlan:
    """Precomputed context for the fused prober → platform → CDE corridor.

    :meth:`build` returns ``None`` unless every structural precondition of
    the fused probe path holds for this platform; the engine then keeps the
    real per-message path.  The preconditions are exactly the cases where
    the real path takes no other branch, and every link the corridor
    crosses draws like :func:`_leg`, so the fused replica below can
    reproduce its mutation sequence verbatim.
    """

    __slots__ = (
        "clock", "stats", "prober", "prober_ip", "timeout", "retries",
        "platform", "caches", "n_caches", "cache_selector", "egress_ips",
        "n_egress", "query_log",
        # fast-path state
        "base_domain", "rng_gauss", "rng_random",
        "prober_randrange", "platform_randrange", "egress_randrange",
        "probe_src", "probe_dst", "server_dst", "egress_src",
        "sel_kind", "sel_state",
        "zone", "template", "ns_key", "a_key",
        "corridor", "cold", "cold_walk_misses",
    )

    def __init__(self, world: SimulatedInternet, platform: ResolutionPlatform,
                 probe_src: LinkParams, probe_dst: LinkParams,
                 server_dst: LinkParams, egress_src: list[LinkParams],
                 cold: _ColdChain):
        self.clock = world.network.clock
        self.stats = world.network.stats
        self.prober = world.prober
        self.prober_ip: str = world.prober.prober_ip
        self.timeout: float = world.prober.timeout
        self.retries: int = world.prober.retries
        self.platform = platform
        self.caches: list[DnsCache] = platform.caches
        self.n_caches: int = len(platform.caches)
        self.cache_selector = platform.cache_selector
        self.egress_ips: list[str] = platform.config.egress_ips
        self.n_egress: int = len(platform.config.egress_ips)
        self.query_log: QueryLog = world.cde.server.query_log

        # -- fast-path precomputation -----------------------------------
        self.base_domain: DnsName = world.cde.base_domain
        rng = world.network._rng
        self.rng_gauss: Callable[[float, float], float] = rng.gauss
        self.rng_random: Callable[[], float] = rng.random
        self.prober_randrange: Callable[[int], int] = self.prober.rng.randrange
        self.platform_randrange: Callable[[int], int] = platform.rng.randrange
        # build() gated the selector type, so ``_rng`` is its only state.
        self.egress_randrange: Callable[[int], int] = \
            platform.egress_selector._rng.randrange
        self.probe_src = probe_src
        self.probe_dst = probe_dst
        self.server_dst = server_dst
        self.egress_src = egress_src
        # Type-gated cache-selector fast path: every stock selector's
        # ``select`` reduces to a cheap expression of state the corridor
        # holds (corridor queries always arrive from the prober's address).
        # 0 = generic call, 1 = round-robin, 2 = uniform-random (its bound
        # ``randrange``), 3 = qname-hash (per-name memo), 4 = source-ip-hash
        # (one fixed index).
        selector = platform.cache_selector
        selector_type = type(selector)
        self.sel_kind: int = 0
        self.sel_state: Any = None
        if selector_type is RoundRobinSelector:
            self.sel_kind = 1
            self.sel_state = selector
        elif selector_type is UniformRandomSelector:
            self.sel_kind = 2
            self.sel_state = selector._rng.randrange
        elif selector_type is QnameHashSelector:
            self.sel_kind = 3
            self.sel_state = (selector._salt, {})
        elif selector_type is SourceIpHashSelector:
            self.sel_kind = 4
            self.sel_state = _stable_hash(
                selector._salt, self.prober_ip) % self.n_caches
        # Seeded from the lane's cold chain by each cold replay.
        self.zone: Optional[Zone] = None
        self.template: Optional[_Template] = None
        self.ns_key: tuple[DnsName, RRType] = (self.base_domain, RRType.NS)
        self.a_key: Optional[tuple[DnsName, RRType]] = None
        self.corridor: list[Optional[_CorridorMemo]] = [None] * self.n_caches
        self.cold = cold
        # A cold cache misses once per ancestor in the authority walk (the
        # resolver's first link skips _from_cache: _answer_from just
        # missed); corridor names all have the same depth.
        self.cold_walk_misses: int = sum(
            1 for _ in self.base_domain.prepend("x").ancestors(
                include_self=True))

    @classmethod
    def build(cls, world: SimulatedInternet, hosted: HostedPlatform,
              cold: _ColdChain) -> Optional["_FastPlan"]:
        network = world.network
        prober = world.prober
        platform = hosted.platform
        config = platform.config
        server = world.cde.server
        if network.injector is not None:
            return None           # faults branch per attempt
        if prober.policy is not None:
            return None           # policy owns the retry loop
        if network.wire_fidelity:
            return None           # every hop must round-trip the codec
        if config.open_to is not None:
            return None           # closed resolver: access check branch
        if config.frontend_dedup_window > 0:
            return None           # dedup table branch in resolve_for_client
        if config.prefetch_horizon > 0:
            return None           # cache hits may trigger upstream refreshes
        if platform._offline_caches:
            return None           # failover branch in _pick_cache
        if type(platform.egress_selector) is not RandomEgressSelector:
            return None           # exactly one rng draw per send call
        if not server.online or server.rrl_rate is not None:
            return None
        ns_ip = world.cde.ns_ip
        if network.endpoint_at(ns_ip) is not server:
            return None
        if network.endpoint_at(config.ingress_ips[0]) is not platform:
            return None
        probe_src = network.link_of(prober.prober_ip)
        probe_dst = network.link_of(config.ingress_ips[0])
        server_dst = network.link_of(ns_ip)
        egress_src = [network.link_of(ip) for ip in config.egress_ips]
        if probe_src is None or probe_dst is None or server_dst is None or \
                any(params is None for params in egress_src):
            return None           # unregistered or uncompiled link
        return cls(world, platform, probe_src, probe_dst, server_dst,
                   [params for params in egress_src if params is not None],
                   cold)


def _leg(plan: _FastPlan, src: LinkParams, dst: LinkParams
         ) -> tuple[bool, float]:
    """``Network._traverse`` for two compiled links.

    Same draws, same order, same short-circuit: destination latency,
    destination loss, source latency, then source loss only when the
    message was not already lost.
    """
    gauss = plan.rng_gauss
    lognormal, median, sigma, rate = dst
    latency = median * exp(gauss(0.0, sigma)) if lognormal else median
    lost = rate > 0.0 and plan.rng_random() < rate
    lognormal, median, sigma, rate = src
    latency += median * exp(gauss(0.0, sigma)) if lognormal else median
    if not lost:
        lost = rate > 0.0 and plan.rng_random() < rate
    return lost, latency


def _fused_probe(plan: _FastPlan, qname: DnsName, qtype: RRType) -> bool:
    """One direct probe through the fused corridor.

    Replicates ``DirectProber.probe`` → ``Network.query`` →
    ``ResolutionPlatform.resolve_for_client`` for the eligible case,
    preserving every RNG draw, clock advance and counter mutation, while
    building no messages.  Returns the delivery status — the only probe
    field the direct techniques consume.
    """
    clock = plan.clock
    stats = plan.stats
    plan.prober.queries_sent += 1
    # The outer query's message id is drawn but observed by no one (the
    # platform does not log client ids); the draw itself must still happen
    # to keep the "prober" stream aligned with the real path.
    plan.prober_randrange(1 << 16)
    timeout = plan.timeout
    src = plan.probe_src
    dst = plan.probe_dst
    attempts = 0
    while attempts <= plan.retries:
        attempts += 1
        if attempts > 1:
            stats.retransmissions += 1
        sent_at = clock.now
        stats.messages_sent += 1
        lost, latency = _leg(plan, src, dst)
        if lost:
            stats.requests_lost += 1
            clock.now = sent_at + timeout      # advance_to, never backward
            continue
        clock.now = sent_at + latency
        # The platform answers every eligible query (a SERVFAIL is still a
        # response), so the silent-drop branch cannot trigger here.
        _fused_resolve(plan, qname, qtype)
        lost, latency = _leg(plan, src, dst)
        if lost:
            stats.responses_lost += 1
            deadline = sent_at + timeout
            if deadline > clock.now:           # max(now, deadline)
                clock.now = deadline
            continue
        clock.now += latency
        stats.messages_delivered += 1
        return True
    stats.timeouts += 1
    return False


def _fused_resolve(plan: _FastPlan, qname: DnsName, qtype: RRType) -> None:
    """``resolve_for_client`` minus response assembly (nobody reads it)."""
    platform = plan.platform
    pstats = platform.stats
    pstats.queries += 1
    platform._sequence += 1
    sel_kind = plan.sel_kind
    if sel_kind == 2:       # uniform-random: one randrange on its rng
        cache_index = plan.sel_state(plan.n_caches)
    elif sel_kind == 4:     # source-ip-hash: the prober is the only client
        cache_index = plan.sel_state
    elif sel_kind == 1:     # round-robin: arrival counter
        selector = plan.sel_state
        cache_index = selector._next % plan.n_caches
        selector._next += 1
    elif sel_kind == 3:     # qname-hash: one digest per distinct name
        salt, memo = plan.sel_state
        cache_index = memo.get(qname)
        if cache_index is None:
            memo[qname] = cache_index = _stable_hash(
                salt, str(qname).lower()) % plan.n_caches
    else:
        cache_index = plan.cache_selector.select(
            QueryContext(qname, qtype, plan.prober_ip, platform._sequence),
            plan.n_caches)
    cache = plan.caches[cache_index]
    clock = plan.clock
    clock.now += 0.0002        # intra-platform hop, as in resolve_for_client
    centries = cache._entries
    # Corridor names are freshly minted, so the chain gets at the name are
    # provable misses; verify the keys really are absent (this covers the
    # RFC 2308 NXDOMAIN check at (name, ANY) too) and bump the exact stats
    # the real gets would.  Any surprise → generic chain walk.
    if ((qname, qtype) not in centries
            and (qname, RRType.ANY) not in centries
            and (qname, RRType.CNAME) not in centries
            and (qname, RRType.NS) not in centries):
        # _answer_from's chain get + CNAME alias get (when qtype != CNAME).
        cache.stats.misses += 2 if qtype != RRType.CNAME else 1
        pstats.cache_misses += 1
        try:
            if not _fused_upstream(plan, cache, cache_index, qname, qtype):
                # Structural surprise: run the real resolution from exactly
                # the point the real code would (no mutations happened yet).
                # Re-serving the resolved chain through the cache is pure.
                platform._resolve_upstream(cache, qname, qtype)
                _remember_corridor(plan, cache, cache_index)
        except ResolutionError:
            pstats.failures += 1
        return
    _fused_resolve_chain(plan, cache, cache_index, qname, qtype)


def _fused_resolve_chain(plan: _FastPlan, cache: DnsCache, cache_index: int,
                         qname: DnsName, qtype: RRType) -> None:
    """The generic CNAME-chain walk of ``_answer_from``.

    Taken when the chosen cache already holds the probed name — every
    repeat probe of one name, about a third of census-open's probes.
    """
    platform = plan.platform
    pstats = platform.stats
    now = plan.clock.now
    current = qname
    for _ in range(MAX_ANSWER_CHAIN):
        entry = cache.get(current, qtype, now)
        if entry is not None:
            # Positive, NXDOMAIN and NODATA hits all end the chain; aging
            # the RRset for the response is pure and the prefetch hook is
            # gated off (prefetch_horizon == 0), so nothing else mutates.
            pstats.cache_hits += 1
            return
        if qtype != RRType.CNAME:
            alias = cache.get(current, RRType.CNAME, now)
            if alias is not None and alias.kind == EntryKind.POSITIVE:
                pstats.cache_hits += 1
                assert alias.rrset is not None
                target = alias.rrset.records[0].rdata
                assert isinstance(target, CnameRdata)
                current = target.target
                continue
        pstats.cache_misses += 1
        try:
            if not _fused_upstream(plan, cache, cache_index, current, qtype):
                platform._resolve_upstream(cache, current, qtype)
                _remember_corridor(plan, cache, cache_index)
        except ResolutionError:
            pstats.failures += 1
        return
    return  # chain too long: SERVFAIL without a failures increment


def _fused_upstream(plan: _FastPlan, cache: DnsCache, cache_index: int,
                    qname: DnsName, qtype: RRType) -> bool:
    """Fused ``_resolve_upstream`` for the single-authority CDE case.

    Two tiers: the warm corridor memo of this cache, and the captured
    cold chain replayed into an empty cache.  Returns ``False`` — having
    mutated nothing — in every other case (a stale memo, a cache holding
    other entries, a declined chain, a non-A query); the caller then runs
    the real ``_resolve_upstream``.  Raises :class:`ResolutionError`
    (like the real path) when every attempt to reach a server is lost.
    """
    if qtype is not RRType.A:
        return False
    memo = plan.corridor[cache_index]
    if memo is not None:
        now = plan.clock.now
        ns_entry, a_entry = memo
        centries = cache._entries
        # The cold replay that set the memo seeded these.
        template = plan.template
        a_key = plan.a_key
        zone = plan.zone
        assert template is not None and a_key is not None and \
            zone is not None
        # The memo stands while both corridor entries are the very
        # objects cached before and still live; the template while the
        # wildcard RRset object is unchanged.  Any replacement, expiry
        # or added record fails the check → the real path resolves.
        if (centries.get(plan.ns_key) is ns_entry
                and now < ns_entry.expires_at
                and centries.get(a_key) is a_entry
                and now < a_entry.expires_at
                and zone._rrsets.get(template[0]) is template[1]
                and len(template[1].records) == template[2]):
            # The warm corridor: replay the exact stat/recency mutations
            # of _closest_known_authority (miss at the name's own NS key,
            # then hits on the memoized (base, NS) and (ns, A) entries;
            # the resolver's first link skips _from_cache, which
            # _answer_from's misses already answered) and the answer put
            # — without the dictionary walks, zone lookup or intermediate
            # RRSet copies.
            cstats = cache.stats
            cstats.misses += 1
            ns_entry.hits += 1
            ns_entry.last_used = now
            a_entry.hits += 1
            a_entry.last_used = now
            cstats.hits += 2
            _fused_answer(plan, cache, qname, qtype, template)
            return True
        return False
    if cache._entries:
        return False
    chain = plan.cold
    if not chain.valid():
        return False
    # A re-capture inside valid() may have refreshed the chain; re-sync
    # the plan's view before replaying.
    template = chain.template
    zone = chain.zone
    if (template is None or zone is None
            or zone._rrsets.get(template[0]) is not template[1]
            or len(template[1].records) != template[2]):
        return False
    plan.zone = zone
    plan.template = template
    plan.a_key = chain.a_key
    return _fused_upstream_cold(plan, cache, cache_index, qname, qtype,
                                template)


def _fused_upstream_cold(plan: _FastPlan, cache: DnsCache, cache_index: int,
                         qname: DnsName, qtype: RRType,
                         template: _Template) -> bool:
    """Replay the captured referral chain into an empty cache.

    Every cache lookup on an empty cache is a miss, so the authority-walk
    gets collapse to one counter bump (the resolver's first link reads no
    cache: _from_cache is skipped after _answer_from's misses); the per-hop
    exchanges and referral-RRset puts then replay the real iterative
    descent exactly (glue answers every hop, so no intermediate cache
    reads happen).  Finishing warms the corridor memo directly, so the
    cache's later probes take the warm tier.
    """
    cache.stats.misses += plan.cold_walk_misses
    levels = plan.cold.levels
    assert levels is not None
    for server, zone_name, dst_params, ingest in levels:
        ingested_at = _fused_exchange(plan, server.query_log, dst_params,
                                      qname, qtype, zone_name)
        for rrset in ingest:
            # put_rrset; with_ttl keeps each record's own name.
            _put_positive(cache, rrset.name, rrset.rtype, rrset.rclass,
                          rrset.records, None, rrset.ttl, ingested_at)
    _fused_answer(plan, cache, qname, qtype, template)
    # The referral puts above created this cache's corridor entries.
    _remember_corridor(plan, cache, cache_index)
    return True


def _remember_corridor(plan: _FastPlan, cache: DnsCache,
                       cache_index: int) -> None:
    """Point the cache's warm memo at its live corridor entries.

    A cold replay's referral puts create them, and a real
    ``_resolve_upstream`` re-fetches them once they expired or were
    evicted.  The warm tier revalidates both (identity and expiry) before
    every use.
    """
    a_key = plan.a_key
    if a_key is None:
        return
    centries = cache._entries
    ns_entry = centries.get(plan.ns_key)
    a_entry = centries.get(a_key)
    if ns_entry is not None and a_entry is not None:
        plan.corridor[cache_index] = (ns_entry, a_entry)


def _fused_answer(plan: _FastPlan, cache: DnsCache, qname: DnsName,
                  qtype: RRType, template: _Template) -> None:
    """One egress transaction to the CDE nameserver plus the answer put.

    ``_ingest_response`` + ``put_rrset``, collapsed: the wildcard answer
    re-owned to ``qname`` — exactly the RRSet ``group_rrsets(lookup.records)
    → put_rrset`` would store.
    """
    zone = plan.zone
    assert zone is not None
    ingested_at = _fused_exchange(plan, plan.query_log, plan.server_dst,
                                  qname, qtype, zone.origin)
    _, wset, _, wrecords, ttl = template
    _put_positive(cache, qname, wset.rtype, wset.rclass, wrecords, qname,
                  ttl, ingested_at)


def _fused_exchange(plan: _FastPlan, log: QueryLog, dst_params: LinkParams,
                    qname: DnsName, qtype: RRType, zone_name: DnsName
                    ) -> float:
    """One ``_try_servers`` send to a single-candidate server.

    Shuffling the one-candidate list draws nothing; the query-id draw and
    the per-send egress draw happen in this order, once per send call
    (retransmissions reuse both).  Returns the time the response arrived;
    raises :class:`ResolutionError` (like the real path) when every
    attempt is lost.
    """
    msg_id = plan.platform_randrange(1 << 16)
    egress_index = plan.egress_randrange(plan.n_egress)
    egress_ip = plan.egress_ips[egress_index]
    src_params = plan.egress_src[egress_index]
    clock = plan.clock
    stats = plan.stats
    attempts = 0
    while attempts <= _DEFAULT_RETRIES:
        attempts += 1
        if attempts > 1:
            stats.retransmissions += 1
        sent_at = clock.now
        stats.messages_sent += 1
        lost, latency = _leg(plan, src_params, dst_params)
        if lost:
            stats.requests_lost += 1
            clock.now = sent_at + _DEFAULT_TIMEOUT
            continue
        clock.now = sent_at + latency
        # AuthoritativeServer.handle_message logs every attempt whose
        # request leg survived — including those whose response is then
        # lost.
        log.record(LogEntry(clock.now, egress_ip, qname, qtype, msg_id))
        lost, latency = _leg(plan, src_params, dst_params)
        if lost:
            stats.responses_lost += 1
            deadline = sent_at + _DEFAULT_TIMEOUT
            if deadline > clock.now:
                clock.now = deadline
            continue
        clock.now += latency
        stats.messages_delivered += 1
        plan.platform.stats.upstream_queries += 1
        return clock.now
    stats.timeouts += 1
    raise ResolutionError(
        f"no authority for {qname} responded (zone {zone_name})")


def _put_positive(cache: DnsCache, name: DnsName, rtype: RRType,
                  rclass: RRClass, records: Sequence[ResourceRecord],
                  owner: Optional[DnsName], ttl: int, now: float) -> None:
    """``put_rrset`` without the source RRSet: clamp the TTL, re-own the
    records at the clamped TTL and insert the positive entry.

    ``owner`` renames every record (``None`` keeps each record's own
    name).  The TTL window that ``DnsCache`` and ``PlatformConfig`` both
    enforce keeps the clamped TTL non-negative, so the real put's
    negative-TTL error cannot arise here.
    """
    clamped = cache.clamp_ttl(ttl)
    owned = []
    for record in records:
        owned.append(ResourceRecord(record.name if owner is None else owner,
                                    record.rtype, clamped, record.rdata,
                                    record.rclass))
    cache._insert(CacheEntry(name, rtype, _POSITIVE, now, now + clamped,
                             RRSet(name, rtype, rclass, owned)), now)


class ShardLane:
    """One shard's world, measured one platform per :meth:`step`.

    A lane is strictly sequential: its platforms share one clock, one RNG
    factory and one address allocator, so their order is part of the
    seeded determinism.  Each platform leaves the world once its row is
    out (:meth:`SimulatedInternet.retire_platform`), so a lane holds one
    in-flight platform and its memory does not grow with its stripe.
    ``run_shard`` drives a single lane to completion; the in-process
    stream steps each lane when its next row is due.  Busy time is
    accumulated around lane work only (construction and steps), so merged
    ``busy_seconds`` does not count orchestration or pool handoff.
    """

    def __init__(self, task: ShardTask):
        started = time.perf_counter()
        self.task = task
        self.fused_probes = 0
        self.fallback_probes = 0
        self.platforms_done = 0
        self._indirect_queries = 0
        self.world = SimulatedInternet(task.config)
        #: The captured referral chain, shared by the lane's platform plans
        #: (the chain is world state, not platform state).
        self.cold_chain = _ColdChain(self.world)
        self._stats_before = snapshot_stats(self.world.network.stats)
        self.busy_seconds = time.perf_counter() - started

    def _direct_probe(self, hosted: HostedPlatform
                      ) -> Callable[[DnsName, RRType], bool]:
        """How ``measure_direct`` reaches this platform, counted per probe.

        The fused corridor when the platform's :class:`_FastPlan` builds,
        else the structured ``DirectProber.probe`` path.
        """
        plan = _FastPlan.build(self.world, hosted, self.cold_chain)
        if plan is None:
            prober = self.world.prober
            ingress_ip = hosted.platform.ingress_ips[0]

            def fallback(qname: DnsName, qtype: RRType) -> bool:
                self.fallback_probes += 1
                return prober.probe(ingress_ip, qname, qtype).delivered
            return fallback

        def fused(qname: DnsName, qtype: RRType) -> bool:
            self.fused_probes += 1
            return _fused_probe(plan, qname, qtype)
        return fused

    def step(self) -> Optional[PlatformMeasurement]:
        """Measure and retire the lane's next platform; ``None`` when done."""
        specs = self.task.specs
        if self.platforms_done == len(specs):
            return None
        started = time.perf_counter()
        spec = specs[self.platforms_done]
        world = self.world
        budget = self.task.budget
        hosted = world.add_platform_from_spec(spec)
        if spec.population == "open-resolvers":
            row = measure_direct(world, hosted, budget,
                                 probe=self._direct_probe(hosted))
        else:
            row = MEASURES[spec.population](world, hosted, budget)
            self._indirect_queries += row.queries_used
        self.platforms_done += 1
        world.retire_platform(hosted)
        self.busy_seconds += time.perf_counter() - started
        return row

    def perf(self) -> ShardPerf:
        """The finished lane's performance sample."""
        if self.platforms_done < len(self.task.specs):
            raise RuntimeError("lane still has work pending")
        return ShardPerf(
            shard_index=self.task.shard_index,
            platforms=self.platforms_done,
            wall_seconds=self.busy_seconds,
            # Methodology spend: direct probes plus the queries the indirect
            # techniques pushed through SMTP servers and browsers.
            queries_sent=self.world.prober.queries_sent
            + self._indirect_queries,
            stats=stats_delta(self._stats_before, self.world.network.stats),
            fused_probes=self.fused_probes,
            fallback_probes=self.fallback_probes,
        )
