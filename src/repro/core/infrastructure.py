"""The Caches Discovery and Enumeration (CDE) measurement infrastructure.

Per paper §IV-A: "The CDE infrastructure owns a domain cache.example and
uses subdomains under cache.example.  It also utilises nameservers,
authoritative for cache.example, and nameservers authoritative for the
subdomains of cache.example."

:class:`CdeInfrastructure` provisions exactly that inside the simulator:

* the base zone (default ``cache.example``) on its own authoritative
  nameserver, delegated from the TLD, running with *minimal responses* so
  that CNAME answers do not include the target's address record (the
  CNAME-chain bypass counts the follow-up target queries);
* a wildcard under the base zone so unlimited unique probe names resolve
  without pre-registration;
* factories for the three record structures the techniques need — unique
  probe names, CNAME chains (§IV-B2a) and delegated name hierarchies
  (§IV-B2b);
* counting helpers over the nameserver query logs, which are the *only*
  data the measurement techniques consume;
* :meth:`CdeInfrastructure.retire_planted`, which takes every record the
  factories planted back out (and unregisters the sub-zone nameservers),
  so a census world's CDE zone returns to its empty shape after each
  platform and its memory stays flat however many platforms it measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..dns.name import (MAX_LABEL_LENGTH, MAX_NAME_LENGTH, DnsName,
                        name as make_name)
from ..dns.record import (ResourceRecord, a_record, aaaa_record, cname_record,
                          ns_record, soa_record)
from ..dns.zone import WILDCARD_LABEL, Zone
from ..dns.rrtype import RRType
from ..net.network import LinkProfile, Network
from ..server.authoritative import AuthoritativeServer
from ..server.querylog import QueryLog
from ..server.hierarchy import RootHierarchy

#: Default TTL for probe records: long enough that planted records outlive a
#: whole measurement session.
PROBE_TTL = 3600


@dataclass
class CnameChain:
    """The q alias names of a CNAME-chain setup and their shared target."""

    aliases: list[DnsName]
    target: DnsName


@dataclass
class NamesHierarchy:
    """A delegated subzone used by the names-hierarchy bypass."""

    origin: DnsName          # sub-k.cache.example
    names: list[DnsName]     # x-i.sub-k.cache.example
    ns_name: DnsName
    ns_ip: str
    server: AuthoritativeServer


class CdeInfrastructure:
    """Controlled domain, nameservers and query-log bookkeeping."""

    def __init__(self, network: Network, hierarchy: RootHierarchy,
                 base_domain: str = "cache.example",
                 ns_ip: str = "203.0.113.53",
                 answer_ip: str = "203.0.113.100",
                 sub_ns_ip_base: str = "203.0.113.",
                 profile: Optional[LinkProfile] = None):
        self.network = network
        self.hierarchy = hierarchy
        self.base_domain = make_name(base_domain)
        self.ns_ip = ns_ip
        self.answer_ip = answer_ip
        self._sub_ns_ip_base = sub_ns_ip_base
        self._profile = profile
        self._name_counter = itertools.count(1)
        # Label headroom under the base domain (lazily computed); lets
        # unique_name() take DnsName's trusted constructor for generated
        # labels instead of re-validating each one.
        self._label_budget: Optional[int] = None
        self._chain_counter = itertools.count(1)
        self._sub_counter = itertools.count(1)
        self._sub_ip_counter = itertools.count(150)

        self.ns_name = self.base_domain.prepend("ns")
        self.zone = Zone(self.base_domain)
        # Large SOA TTL/minimum: negative answers must outlive any cache's
        # own negative-TTL cap, so that the cap — a fingerprintable,
        # per-software property — is what binds (see core/fingerprint.py).
        self.zone.add_record(soa_record(
            self.base_domain, self.ns_name,
            self.base_domain.prepend("hostmaster"),
            ttl=86_400, minimum=86_400,
        ))
        self.zone.add_record(ns_record(self.base_domain, self.ns_name))
        self.zone.add_record(a_record(self.ns_name, ns_ip, ttl=PROBE_TTL))
        # Wildcards: every otherwise-unknown probe name resolves, dual-stack
        # (AAAA probes exercise the same cache paths as A probes).
        self.zone.add_record(a_record(
            self.base_domain.prepend(WILDCARD_LABEL), answer_ip, ttl=PROBE_TTL,
        ))
        self.zone.add_record(aaaa_record(
            self.base_domain.prepend(WILDCARD_LABEL),
            "2001:db8:0:0:0:0:0:64", ttl=PROBE_TTL,
        ))

        # The measurement nameserver withholds CNAME targets (minimal
        # responses) so each cache must resolve the target itself.
        self.server = AuthoritativeServer(f"cde-ns-{base_domain}",
                                          minimal_responses=True)
        self.server.add_zone(self.zone)
        network.register(ns_ip, self.server, profile)
        hierarchy.delegate(self.base_domain, self.ns_name, ns_ip)

        self._hierarchies: list[NamesHierarchy] = []
        #: ``(owner, rtype)`` of every base-zone RRset planted since
        #: construction (or the last :meth:`retire_planted`).
        self._planted: list[tuple[DnsName, RRType]] = []

    # -- probe-name factories -------------------------------------------------

    def unique_name(self, prefix: str = "p") -> DnsName:
        """A fresh, never-before-used name under the base domain."""
        label = f"{prefix}-{next(self._name_counter)}"
        # Generated labels are valid by construction when the prefix is
        # dot-free; only the length bounds depend on the counter, so the
        # trusted constructor applies (same name prepend() would build,
        # linked to the base domain as its parent).
        budget = self._label_budget
        if budget is None:
            base_labels = self.base_domain.labels
            budget = min(
                MAX_LABEL_LENGTH,
                MAX_NAME_LENGTH
                - sum(len(lab) for lab in base_labels) - len(base_labels),
            )
            self._label_budget = budget
        if len(label) <= budget and "." not in prefix:
            base = self.base_domain
            if label.islower():
                # Already case-folded → hand the folded tuple over too, so
                # the name's first hash doesn't lazily re-fold it.
                return DnsName._trusted((label,) + base.labels,
                                        (label,) + base.folded, base)
            return DnsName._trusted((label,) + base.labels, None, base)
        return self.base_domain.prepend(label)

    def unique_names(self, count: int, prefix: str = "p") -> list[DnsName]:
        return [self.unique_name(prefix) for _ in range(count)]

    def add_a_record(self, owner: DnsName, address: Optional[str] = None,
                     ttl: int = PROBE_TTL) -> None:
        self._plant(a_record(owner, address or self.answer_ip, ttl=ttl))

    def _plant(self, record: ResourceRecord) -> None:
        """Add ``record`` to the base zone and remember its RRset for
        :meth:`retire_planted`.  Owners are fresh names, never ones the
        zone was built with."""
        self.zone.add_record(record)
        self._planted.append((record.name, record.rtype))

    def retire_planted(self) -> None:
        """Remove every RRset planted since construction and every
        names-hierarchy sub-zone (its server leaves the network).

        Planted names are unique, so once the measurement that planted
        them is over nothing resolves them again.  Afterwards the zone
        and :meth:`all_query_logs` are back to their freshly built shape.
        """
        for owner, rtype in self._planted:
            self.zone.remove_rrset(owner, rtype)
        self._planted.clear()
        for hierarchy in self._hierarchies:
            self.network.unregister(hierarchy.ns_ip)
        self._hierarchies.clear()

    # -- §IV-B2a: CNAME chain ---------------------------------------------------

    def setup_cname_chain(self, q: int, ttl: int = PROBE_TTL) -> CnameChain:
        """q distinct aliases pointing at one shared target.

        Mirrors the paper's zone fragment::

            x-1.cache.example IN CNAME name.cache.example
            ...
            x-q.cache.example IN CNAME name.cache.example
            name.cache.example IN A a.b.c.d
        """
        chain_id = next(self._chain_counter)
        target = self.base_domain.prepend(f"name-{chain_id}")
        self._plant(a_record(target, self.answer_ip, ttl=ttl))
        aliases = []
        for index in range(1, q + 1):
            alias = self.base_domain.prepend(f"x-{index}-c{chain_id}")
            self._plant(cname_record(alias, target, ttl=ttl))
            aliases.append(alias)
        return CnameChain(aliases=aliases, target=target)

    def setup_fresh_chain(self, links: int, ttl: int = PROBE_TTL) -> list[DnsName]:
        """A multi-link CNAME chain of brand-new names.

        ``links`` CNAME hops end in an A record; resolving the head forces
        the *same cache* to issue one upstream query per link, and with
        minimal responses each link query may leave through a different
        egress address — the observable the cache↔egress co-occurrence
        mapping exploits (the paper's "a CNAME chain often begins with one
        IP address, which is replaced by others in subsequent links").
        """
        if links < 1:
            raise ValueError("need at least one link")
        chain_id = next(self._chain_counter)
        names = [self.base_domain.prepend(f"link-{index}-f{chain_id}")
                 for index in range(links + 1)]
        for index in range(links):
            self._plant(cname_record(names[index], names[index + 1], ttl=ttl))
        self._plant(a_record(names[-1], self.answer_ip, ttl=ttl))
        return names

    # -- §IV-B2b: names hierarchy ---------------------------------------------

    def setup_names_hierarchy(self, q: int, ttl: int = PROBE_TTL) -> NamesHierarchy:
        """A delegated subzone with q leaf names.

        Mirrors the paper's two zone fragments: the parent
        (``cache.example``) holds only the NS record and the glue A for the
        subzone's nameserver; the subzone holds the ``x-i`` address records.
        The parent's query log therefore counts exactly one referral query
        per cache.
        """
        sub_id = next(self._sub_counter)
        origin = self.base_domain.prepend(f"sub-{sub_id}")
        ns_name = origin.prepend("ns")
        ns_ip = f"{self._sub_ns_ip_base}{next(self._sub_ip_counter)}"

        sub_zone = Zone(origin)
        sub_zone.add_record(soa_record(
            origin, ns_name, origin.prepend("hostmaster"), minimum=60))
        sub_zone.add_record(ns_record(origin, ns_name, ttl=ttl))
        sub_zone.add_record(a_record(ns_name, ns_ip, ttl=ttl))
        # Wildcard so random-prefix probes (timing technique) also resolve.
        sub_zone.add_record(a_record(
            origin.prepend(WILDCARD_LABEL), self.answer_ip, ttl=ttl))
        names = []
        for index in range(1, q + 1):
            leaf = origin.prepend(f"x-{index}")
            sub_zone.add_record(a_record(leaf, self.answer_ip, ttl=ttl))
            names.append(leaf)

        server = AuthoritativeServer(f"cde-ns-{origin}")
        server.add_zone(sub_zone)
        self.network.register(ns_ip, server, self._profile)

        # Parent side: delegation only (NS + glue) — queries for leaf names
        # get referrals, which is what the technique counts.
        self._plant(ns_record(origin, ns_name, ttl=ttl))
        self._plant(a_record(ns_name, ns_ip, ttl=ttl))

        hierarchy = NamesHierarchy(origin=origin, names=names, ns_name=ns_name,
                                   ns_ip=ns_ip, server=server)
        self._hierarchies.append(hierarchy)
        return hierarchy

    # -- query-log access ------------------------------------------------------

    @property
    def query_log(self) -> QueryLog:
        return self.server.query_log

    def mark(self, label: str) -> None:
        self.server.query_log.mark(label)

    def count_queries_for(self, qname: DnsName, since: Optional[float] = None,
                          qtype: Optional[RRType] = None) -> int:
        """Distinct query transactions for ``qname`` at the base nameserver.

        Retransmissions (same source, message id and question — what a
        resolver re-sends when our response is lost) count once: the
        techniques count *caches*, and a cache that retries is still one
        cache.
        """
        return self.server.query_log.count_transactions(
            qname=qname, qtype=qtype, since=since)

    def count_queries_under(self, suffix: DnsName,
                            since: Optional[float] = None) -> int:
        """Queries for any name at/under ``suffix`` at the base nameserver —
        the counting primitive of the names-hierarchy technique."""
        return self.server.query_log.count_under(suffix, since=since)

    def egress_sources(self, suffix: Optional[DnsName] = None,
                       since: Optional[float] = None) -> set[str]:
        """Distinct source addresses seen at the base nameserver."""
        return self.server.query_log.sources(
            suffix=suffix or self.base_domain, since=since)

    def all_query_logs(self) -> list[QueryLog]:
        """Logs of the base nameserver and every subzone nameserver."""
        logs = [self.server.query_log]
        logs.extend(h.server.query_log for h in self._hierarchies)
        return logs
