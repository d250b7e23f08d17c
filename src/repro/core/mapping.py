"""IP ↔ cache mapping (paper §IV-B1b).

Two directions:

* **Ingress → cache clusters.**  "We apply the caches enumeration technique
  using any ingress IP address I¹, and plant a 'honey' record in all the
  caches mapped to that IP address.  Then, for each ingress IP Iⁱ we send
  queries for the seeded 'honey' record.  If queries are responded without
  accessing our server, we add Iⁱ to the same cluster of caches as I¹."
* **Caches → egress IPs.**  "By repeating the experiment with a set of
  queries to an ingress IP address, and checking which egress IP addresses
  they arrive from at our nameservers, all the egress addresses can be
  covered."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..dns.name import DnsName
from ..dns.rrtype import RRType
from .analysis import queries_for_confidence
from .infrastructure import CdeInfrastructure
from .prober import DirectProber, delivery_probe


@dataclass
class CacheCluster:
    """A set of ingress IPs sharing one cache pool."""

    cluster_id: int
    honey_name: DnsName          # the most recently planted honey record
    member_ips: list[str] = field(default_factory=list)

    @property
    def representative(self) -> str:
        return self.member_ips[0]


@dataclass
class IngressMappingResult:
    clusters: list[CacheCluster]
    queries_sent: int

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, ingress_ip: str) -> Optional[CacheCluster]:
        for cluster in self.clusters:
            if ingress_ip in cluster.member_ips:
                return cluster
        return None


@dataclass
class EgressDiscoveryResult:
    egress_ips: set[str]
    queries_sent: int
    arrivals: int

    @property
    def n_egress(self) -> int:
        return len(self.egress_ips)


def _plant_honey(cde: CdeInfrastructure, prober: DirectProber,
                 ingress_ip: str, honey_name: DnsName, n_hint: int,
                 confidence: float, qtype: RRType) -> int:
    """Push the honey record into (w.h.p.) every cache behind the IP."""
    budget = queries_for_confidence(max(n_hint, 1), confidence)
    for _ in range(budget):
        prober.probe(ingress_ip, honey_name, qtype)
    return budget


def map_ingress_to_clusters(cde: CdeInfrastructure, prober: DirectProber,
                            ingress_ips: list[str],
                            n_hint: int = 4,
                            membership_probes: int = 3,
                            confidence: float = 0.99,
                            qtype: RRType = RRType.A) -> IngressMappingResult:
    """Cluster ingress IPs by the cache pool they front.

    ``n_hint`` is a prior on caches per pool (sets the honey-seeding
    budget); ``membership_probes`` queries test each candidate membership —
    an IP joins a cluster only when *none* of its probes for the cluster's
    honey record reach our nameserver.

    Each membership test plants a **fresh** honey record through the
    cluster's representative IP immediately before probing the candidate.
    Re-using one honey record would poison later tests: a *failed*
    membership probe deposits the record into the candidate's own caches,
    and any subsequent candidate sharing those caches would then appear to
    match the cluster.  (The paper describes the single-record variant; the
    refresh is required for back-to-back clustering runs.)
    """
    if not ingress_ips:
        raise ValueError("need at least one ingress IP")
    clusters: list[CacheCluster] = []
    queries_sent = 0

    for ingress_ip in ingress_ips:
        joined = None
        for cluster in clusters:
            honey_name = cde.unique_name("honey")
            queries_sent += _plant_honey(cde, prober, cluster.representative,
                                         honey_name, n_hint, confidence,
                                         qtype)
            cluster.honey_name = honey_name
            since = prober.network.clock.now
            for _ in range(membership_probes):
                prober.probe(ingress_ip, honey_name, qtype)
            queries_sent += membership_probes
            arrivals = cde.count_queries_for(honey_name, since=since,
                                             qtype=qtype)
            if arrivals == 0:
                joined = cluster
                break
        if joined is not None:
            joined.member_ips.append(ingress_ip)
            continue
        honey_name = cde.unique_name("honey")
        queries_sent += _plant_honey(cde, prober, ingress_ip, honey_name,
                                     n_hint, confidence, qtype)
        clusters.append(CacheCluster(
            cluster_id=len(clusters) + 1,
            honey_name=honey_name,
            member_ips=[ingress_ip],
        ))
    return IngressMappingResult(clusters=clusters, queries_sent=queries_sent)


def discover_egress_ips(cde: CdeInfrastructure, prober: DirectProber,
                        ingress_ip: str, probes: int = 32,
                        qtype: RRType = RRType.A,
                        *,
                        probe: Optional[Callable[[DnsName, RRType], bool]]
                        = None) -> EgressDiscoveryResult:
    """Census the egress addresses behind an ingress IP.

    Each probe uses a fresh name, guaranteeing a cache miss and hence an
    upstream query whose source address lands in our log.  ``probe`` says
    how one probe reaches the platform (default: one real
    ``prober.probe`` at ``ingress_ip``).
    """
    if probes < 1:
        raise ValueError("need at least one probe")
    deliver = probe or delivery_probe(prober, ingress_ip)
    since = prober.network.clock.now
    names = cde.unique_names(probes, prefix="egress")
    for probe_name in names:
        deliver(probe_name, qtype)
    entries = cde.server.query_log.entries_for_any(names, since=since)
    sources = {entry.src_ip for entry in entries}
    return EgressDiscoveryResult(
        egress_ips=sources, queries_sent=probes, arrivals=len(entries),
    )


@dataclass
class EgressClusterResult:
    """Egress IPs grouped by the cache that uses them."""

    clusters: list[frozenset[str]]
    probes_sent: int

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, egress_ip: str) -> Optional[frozenset[str]]:
        for cluster in self.clusters:
            if egress_ip in cluster:
                return cluster
        return None


def map_egress_to_caches(cde: CdeInfrastructure, prober: DirectProber,
                         ingress_ip: str, probes: int = 24,
                         links: int = 4) -> EgressClusterResult:
    """Group egress IPs by co-occurrence within single resolutions.

    One resolution of a fresh multi-link CNAME chain is performed by
    exactly one cache, which sends one upstream query per link — so all
    source addresses observed for one chain belong to the *same* cache.
    Union-finding co-occurring sources over many probes partitions the
    egress pool by cache (paper §IV-B1b: "The mapping from the set of
    caches to the egress IP addresses...").

    Platforms whose caches share the whole egress pool collapse into a
    single cluster; cache-affine deployments split into one cluster per
    cache — itself an independent cache census.
    """
    if probes < 1:
        raise ValueError("need at least one probe")
    if links < 2:
        raise ValueError("need at least two links for co-occurrence")
    parent: dict[str, str] = {}

    def find(ip: str) -> str:
        parent.setdefault(ip, ip)
        while parent[ip] != ip:
            parent[ip] = parent[parent[ip]]
            ip = parent[ip]
        return ip

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    log = cde.server.query_log
    for _ in range(probes):
        chain = cde.setup_fresh_chain(links)
        since = prober.network.clock.now
        prober.probe(ingress_ip, chain[0])
        sources = sorted({
            entry.src_ip
            for entry in log.entries_for_any(chain, since=since)
        })
        for source in sources:
            union(sources[0], source)

    roots: dict[str, set[str]] = {}
    for ip in parent:
        roots.setdefault(find(ip), set()).add(ip)
    clusters = [frozenset(group) for group in roots.values()]
    clusters.sort(key=lambda group: sorted(group)[0])
    return EgressClusterResult(clusters=clusters, probes_sent=probes)


def egress_census_complete(result: EgressDiscoveryResult,
                           margin: int = 8) -> bool:
    """Heuristic: the census likely covered all egress IPs when the number
    of distinct sources plateaued well below the probe count."""
    return result.n_egress + margin <= result.queries_sent
