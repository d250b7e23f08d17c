"""The upper DNS hierarchy: a root server and TLD servers.

Iterative resolution needs somewhere to start.  :class:`RootHierarchy`
builds a root zone and per-TLD zones on their own authoritative servers,
registers them on the network, and exposes :meth:`delegate` so that any
component (the CDE infrastructure, the population generators' victim
domains) can hang a child zone under a TLD with proper NS+glue.
"""

from __future__ import annotations

from typing import Optional

from ..dns.name import ROOT, DnsName, name as make_name
from ..dns.record import a_record, ns_record, soa_record
from ..dns.zone import Zone
from ..net.network import LinkProfile, Network
from .authoritative import AuthoritativeServer
from .querylog import QueryLog

#: Delegation NS/glue TTLs: long, like real TLD zones.
DELEGATION_TTL = 172_800


class RootHierarchy:
    """Root + TLD authoritative infrastructure."""

    def __init__(self, network: Network, root_ip: str = "198.41.0.4",
                 profile: Optional[LinkProfile] = None):
        self.network = network
        self.root_ip = root_ip
        self._profile = profile
        self._tld_servers: dict[DnsName, AuthoritativeServer] = {}
        self._tld_ips: dict[DnsName, str] = {}
        self._next_tld_ip = 0

        self.root_zone = Zone(ROOT)
        self.root_zone.add_record(soa_record(
            ROOT, make_name("a.root-servers.net"), make_name("nstld.verisign-grs.com"),
        ))
        self.root_server = AuthoritativeServer("root")
        self.root_server.add_zone(self.root_zone)
        network.register(root_ip, self.root_server, profile)

    @property
    def root_hints(self) -> list[str]:
        return [self.root_ip]

    def query_logs(self) -> list[QueryLog]:
        """The root server's log, then each TLD server's."""
        return [self.root_server.query_log,
                *(server.query_log for server in self._tld_servers.values())]

    # -- TLD management ----------------------------------------------------

    def ensure_tld(self, tld: str | DnsName) -> AuthoritativeServer:
        """Create (or return) the authoritative server for a TLD."""
        tld_name = make_name(tld) if isinstance(tld, str) else tld
        if len(tld_name) != 1:
            raise ValueError(f"{tld_name} is not a TLD")
        server = self._tld_servers.get(tld_name)
        if server is not None:
            return server

        server_ip = f"192.5.{self._next_tld_ip // 256}.{self._next_tld_ip % 256 + 1}"
        self._next_tld_ip += 1
        ns_name = make_name(f"ns.gtld-servers-{tld_name}.net")

        tld_zone = Zone(tld_name)
        tld_zone.add_record(soa_record(
            tld_name, ns_name, make_name(f"hostmaster.{tld_name}"),
        ))
        server = AuthoritativeServer(f"tld-{tld_name}")
        server.add_zone(tld_zone)
        self.network.register(server_ip, server, self._profile)
        self._tld_servers[tld_name] = server
        self._tld_ips[tld_name] = server_ip

        # Delegate the TLD from the root.
        self.root_zone.add_record(
            ns_record(tld_name, ns_name, ttl=DELEGATION_TTL))
        self.root_zone.add_record(
            a_record(ns_name, server_ip, ttl=DELEGATION_TTL))
        return server

    def tld_server(self, tld: str | DnsName) -> Optional[AuthoritativeServer]:
        tld_name = make_name(tld) if isinstance(tld, str) else tld
        return self._tld_servers.get(tld_name)

    def tld_zone(self, tld: str | DnsName) -> Zone:
        server = self.ensure_tld(tld)
        return server.zones()[-1] if len(server.zones()) == 1 else server.zones()[0]

    # -- child delegation ----------------------------------------------------

    def delegate(self, domain: str | DnsName, ns_name: str | DnsName,
                 ns_ip: str) -> None:
        """Add NS+glue for ``domain`` in its TLD zone.

        The caller is responsible for registering an authoritative server
        for the child zone at ``ns_ip``.
        """
        domain_name = make_name(domain) if isinstance(domain, str) else domain
        if len(domain_name) < 2:
            raise ValueError(f"{domain_name} is not below a TLD")
        nsd = make_name(ns_name) if isinstance(ns_name, str) else ns_name
        tld = DnsName(domain_name.labels[-1:])
        server = self.ensure_tld(tld)
        zone = server.zone_for(domain_name)
        assert zone is not None
        zone.add_record(ns_record(domain_name, nsd, ttl=DELEGATION_TTL))
        if nsd.is_subdomain_of(zone.origin):
            zone.add_record(a_record(nsd, ns_ip, ttl=DELEGATION_TTL))
        else:
            # Out-of-bailiwick nameserver: publish glue at the root so the
            # walk can still find it (simplified sibling-glue handling).
            host_tld = DnsName(nsd.labels[-1:])
            host_server = self.ensure_tld(host_tld)
            host_zone = host_server.zone_for(nsd)
            assert host_zone is not None
            host_zone.add_record(a_record(nsd, ns_ip, ttl=DELEGATION_TTL))
