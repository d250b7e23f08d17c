"""The simulated Internet: wiring platforms, clients and the CDE together.

:class:`SimulatedInternet` (built via :func:`build_world`) owns the shared
clock/network, the root/TLD hierarchy, the CDE infrastructure and a direct
prober, and provides factories for resolution platforms (from explicit
parameters or generated :class:`~repro.study.population.PlatformSpec`s),
browser clients and enterprise SMTP servers.  It is the top-level fixture
used by the examples, the tests and every bench.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from ..client.proxy import WebProxy
    from ..resolver.multipool import MultiPoolPlatform

from ..client.browser import Browser
from ..client.smtp import SmtpAuthPolicy, SmtpServer
from ..core.infrastructure import CdeInfrastructure
from ..core.prober import BrowserProber, DirectProber, SmtpProber
from ..core.resilient import DegradationTally, retry_policy
from ..core.session import CdeStudy, PlatformReport, StudyParameters
from ..dns.message import DnsMessage
from ..net.address import AddressAllocator
from ..net.faults import FaultInjector, fault_plan
from ..net.latency import wan_path
from ..net.loss import NoLoss, country_loss
from ..net.network import LinkProfile, Network, SinkEndpoint
from ..net.rng import RngFactory
from ..resolver.forwarder import TransparentForwarder
from ..resolver.platform import PlatformConfig, ResolutionPlatform
from ..resolver.selection import make_selector
from ..resolver.stub import StubResolver
from ..server.hierarchy import RootHierarchy
from ..server.querylog import QueryLog
from .population import PlatformSpec


# SinkEndpoint moved to repro.net.network (the layer that owns endpoint
# semantics); re-imported above so ``repro.study.SinkEndpoint`` keeps
# working for existing callers.

@dataclass
class HostedPlatform:
    """A platform together with the spec it was built from (ground truth)."""

    spec: PlatformSpec
    platform: ResolutionPlatform
    #: Present when the spec asked for a transparent-forwarder front; the
    #: forwarder's listen address is the identity a scanner would see.
    forwarder: Optional[TransparentForwarder] = None
    #: Client hosts (stubs, SMTP servers) the world registered for this
    #: platform, and every named RNG stream it drew for it:
    #: :meth:`SimulatedInternet.retire_platform` releases both.
    client_ips: list[str] = field(default_factory=list)
    streams: list[str] = field(default_factory=list)


@dataclass
class WorldConfig:
    seed: int = 0
    base_domain: str = "cache.example"
    #: One-way latency medians (seconds) per role.
    prober_latency: float = 0.004
    platform_latency: float = 0.012
    server_latency: float = 0.008
    client_latency: float = 0.006
    #: Latency spread (lognormal sigma).
    jitter_sigma: float = 0.20
    #: Apply the paper's per-country loss models to platforms.
    lossy_platforms: bool = True
    #: Route every message through the RFC 1035 wire codec (slower;
    #: validates that all traffic survives real encoding).
    wire_fidelity: bool = False
    #: Named fault profile (see :data:`repro.net.faults.FAULT_PROFILES`).
    #: ``"none"`` attaches no injector at all — every code path and RNG
    #: draw stays byte-identical to a fault-free world.  Carried as a
    #: *name* (pure data) so shard workers rebuild identical plans.
    fault_profile: str = "none"
    #: Named retry profile (see
    #: :data:`repro.core.resilient.RETRY_PROFILES`).  ``"none"`` keeps the
    #: probers on their seed single-attempt behaviour.
    retry_profile: str = "none"


@dataclass
class _Counters:
    platforms: int = 0
    clients: int = 0
    smtp: int = 0


class SimulatedInternet:
    """Everything needed to run the paper's study, in one object."""

    def __init__(self, config: Optional[WorldConfig] = None):
        self.config = config or WorldConfig()
        self.rng_factory = RngFactory(self.config.seed)
        self.network = Network(rng_factory=self.rng_factory,
                               wire_fidelity=self.config.wire_fidelity)
        self.clock = self.network.clock

        infra_profile = LinkProfile(
            latency=wan_path(self.config.server_latency,
                             self.config.jitter_sigma),
            loss=NoLoss(),
        )
        self.hierarchy = RootHierarchy(self.network, profile=infra_profile)
        self.cde = CdeInfrastructure(self.network, self.hierarchy,
                                     base_domain=self.config.base_domain,
                                     profile=infra_profile)

        prober_profile = LinkProfile(
            latency=wan_path(self.config.prober_latency,
                             self.config.jitter_sigma),
            loss=NoLoss(),
        )
        # Resilience layer: both knobs resolve from *names* so WorldConfig
        # stays pure data (shard workers rebuild identical plans/policies).
        plan = fault_plan(self.config.fault_profile)
        self.injector: Optional[FaultInjector] = None
        if not plan.is_noop:
            self.injector = FaultInjector(
                plan, self.clock, self.rng_factory.stream("faults"))
            self.network.install_faults(self.injector)
        self.retry = retry_policy(self.config.retry_profile)
        self.tally = DegradationTally()

        self.prober_ip = "192.0.2.10"
        self.network.register(self.prober_ip, SinkEndpoint(), prober_profile)
        self.prober = DirectProber(self.prober_ip, self.network,
                                   rng=self.rng_factory.stream("prober"),
                                   policy=self.retry,
                                   retry_rng=self.rng_factory.stream("retry"),
                                   tally=self.tally)

        self.platform_allocator = AddressAllocator("10.0.0.0/8")
        self.client_allocator = AddressAllocator("172.16.0.0/12")
        self.platforms: list[HostedPlatform] = []
        self._counters = _Counters()

    # -- platform factories ------------------------------------------------

    def add_platform(self, n_ingress: int = 1, n_caches: int = 1,
                     n_egress: int = 1, selector: str = "uniform-random",
                     country: str = "default", operator: str = "unknown",
                     population: str = "open-resolvers",
                     min_ttl: Optional[int] = None,
                     max_ttl: Optional[int] = None) -> HostedPlatform:
        """Build and attach one platform from explicit parameters."""
        self._counters.platforms += 1
        spec = PlatformSpec(
            population=population, index=self._counters.platforms,
            operator=operator, country=country, n_ingress=n_ingress,
            n_caches=n_caches, n_egress=n_egress, selector_name=selector,
        )
        return self.add_platform_from_spec(spec, min_ttl=min_ttl,
                                           max_ttl=max_ttl)

    def add_platform_from_spec(self, spec: PlatformSpec,
                               min_ttl: Optional[int] = None,
                               max_ttl: Optional[int] = None
                               ) -> HostedPlatform:
        wants_forwarder = getattr(spec, "transparent_forwarder", False)
        pool = self.platform_allocator.allocate_pool(
            spec.n_ingress + spec.n_egress + (1 if wants_forwarder else 0))
        ingress_ips = pool.allocate_block(spec.n_ingress)
        egress_ips = pool.allocate_block(spec.n_egress)
        platform_rng = self.rng_factory.stream(f"platform/{spec.name}")
        config = PlatformConfig(
            name=spec.name,
            ingress_ips=ingress_ips,
            egress_ips=egress_ips,
            n_caches=spec.n_caches,
            cache_selector=make_selector(
                spec.selector_name,
                random.Random(platform_rng.randrange(1 << 30))),
            country=spec.country,
            operator=spec.operator,
            min_ttl=min_ttl,
            max_ttl=max_ttl,
        )
        platform = ResolutionPlatform(config, self.network,
                                      self.hierarchy.root_hints,
                                      rng=platform_rng)
        loss = (country_loss(spec.country) if self.config.lossy_platforms
                else NoLoss())
        platform.attach(LinkProfile(
            latency=wan_path(self.config.platform_latency,
                             self.config.jitter_sigma),
            loss=loss,
        ))
        forwarder = None
        if wants_forwarder:
            # The forwarder gets its own address in front of the platform's
            # first ingress; queries it relays keep the client's source, so
            # the platform (and its logs) never see the forwarder itself.
            forwarder = TransparentForwarder(
                name=f"tfwd/{spec.name}",
                listen_ip=pool.allocate(),
                upstream_ip=ingress_ips[0],
                network=self.network,
            )
            forwarder.attach(LinkProfile(
                latency=wan_path(self.config.platform_latency,
                                 self.config.jitter_sigma),
                loss=loss,
            ))
        hosted = HostedPlatform(spec=spec, platform=platform,
                                forwarder=forwarder,
                                streams=[f"platform/{spec.name}"])
        self.platforms.append(hosted)
        return hosted

    def retire_platform(self, hosted: HostedPlatform) -> None:
        """Detach a measured platform (and its clients) from this world.

        ``hosted`` must be the only platform in the world: every record
        planted in the CDE zone and every names-hierarchy sub-zone is
        removed (:meth:`CdeInfrastructure.retire_planted`), whichever
        platform's measurement planted it, and every authoritative query
        log is forgotten.  Also unregisters its ingress, egress and
        forwarder addresses and its client hosts, drops it from
        :attr:`platforms` and releases its RNG streams.  Call it once the
        platform's row is out: probe names are unique and every log read
        carries a ``since`` cutoff from its own platform's measurement, so
        later platforms measure exactly as before.
        """
        if len(self.platforms) != 1 or self.platforms[0] is not hosted:
            raise RuntimeError(
                "retire_platform would remove the planted records and "
                "query logs of other platforms still in this world")
        config = hosted.platform.config
        addresses = [*config.ingress_ips, *config.egress_ips,
                     *hosted.client_ips]
        if hosted.forwarder is not None:
            addresses.append(hosted.forwarder.listen_ip)
        for ip in addresses:
            self.network.unregister(ip)
        self.platforms.remove(hosted)
        self.rng_factory.release(hosted.streams)
        self.cde.retire_planted()
        for log in self.query_logs():
            log.forget()

    def query_logs(self) -> list[QueryLog]:
        """Every authoritative server's log: CDE, sub-zones, root, TLDs."""
        return [*self.cde.all_query_logs(), *self.hierarchy.query_logs()]

    def add_multipool_platform(self, pool_shapes: list[tuple[int, int, int]],
                               name: Optional[str] = None,
                               selector: str = "uniform-random",
                               ) -> "MultiPoolPlatform":
        """A platform whose ingress IPs are partitioned into cache pools.

        ``pool_shapes`` is a list of (n_ingress, n_caches, n_egress) per
        pool.  Used to exercise the §IV-B1b ingress→cluster mapping against
        non-trivial ground truth.
        """
        from ..resolver.multipool import MultiPoolConfig, MultiPoolPlatform, PoolSpec

        self._counters.platforms += 1
        platform_name = name or f"multipool-{self._counters.platforms}"
        # Shares the "platform/<name>" label family with
        # add_platform_from_spec deliberately: both are platform builders,
        # a world never constructs the same platform name twice (the
        # shared _counters.platforms counter guarantees distinct default
        # names), and renaming the label would shift every committed
        # expectation derived from existing seeds.
        rng = self.rng_factory.stream(f"platform/{platform_name}")  # cdelint: disable=CDE009
        pools = []
        for index, (n_ingress, n_caches, n_egress) in enumerate(pool_shapes):
            pool = self.platform_allocator.allocate_pool(n_ingress + n_egress)
            pools.append(PoolSpec(
                name=f"pool-{index}",
                ingress_ips=pool.allocate_block(n_ingress),
                egress_ips=pool.allocate_block(n_egress),
                n_caches=n_caches,
                cache_selector=make_selector(
                    selector, random.Random(rng.randrange(1 << 30))),
            ))
        platform = MultiPoolPlatform(
            MultiPoolConfig(name=platform_name, pools=pools),
            self.network, self.hierarchy.root_hints, rng=rng)
        platform.attach(LinkProfile(
            latency=wan_path(self.config.platform_latency,
                             self.config.jitter_sigma),
            loss=NoLoss(),
        ))
        return platform

    # -- client factories ---------------------------------------------------

    def _client_profile(self) -> LinkProfile:
        return LinkProfile(
            latency=wan_path(self.config.client_latency,
                             self.config.jitter_sigma),
            loss=NoLoss(),
        )

    def make_stub(self, hosted: HostedPlatform,
                  resolvers: Optional[list[str]] = None) -> StubResolver:
        self._counters.clients += 1
        host_ip = self.client_allocator.allocate_pool(1).allocate()
        self.network.register(host_ip, SinkEndpoint(), self._client_profile())
        hosted.client_ips.append(host_ip)
        hosted.streams += (f"stub/{host_ip}", f"retry/stub/{host_ip}")
        ips = resolvers or hosted.platform.ingress_ips[:2]
        return StubResolver(
            host_ip, ips, self.network,
            rng=self.rng_factory.stream(f"stub/{host_ip}"),
            retry_policy=self.retry,
            retry_rng=self.rng_factory.stream(f"retry/stub/{host_ip}"),
            tally=self.tally,
        )

    def make_browser(self, hosted: HostedPlatform,
                     proxy: Optional["WebProxy"] = None) -> Browser:
        stub = self.make_stub(hosted)
        return Browser(stub.host_ip, stub, self.network, proxy=proxy)

    def make_proxy(self, hosted: HostedPlatform,
                   name: str = "proxy") -> "WebProxy":
        """A shared web proxy resolving through ``hosted``'s platform."""
        from ..client.proxy import WebProxy

        return WebProxy(name, self.make_stub(hosted))

    def make_browser_prober(self, hosted: HostedPlatform) -> BrowserProber:
        return BrowserProber(self.make_browser(hosted))

    def make_smtp_server(self, domain: str, hosted: HostedPlatform,
                         policy: Optional[SmtpAuthPolicy] = None) -> SmtpServer:
        self._counters.smtp += 1
        stub = self.make_stub(hosted)
        if policy is None:
            hosted.streams.append(f"smtp-policy/{domain}")
            policy = SmtpAuthPolicy.draw(
                self.rng_factory.stream(f"smtp-policy/{domain}"))
        return SmtpServer(domain=domain, host_ip=stub.host_ip, stub=stub,
                          policy=policy)

    def make_smtp_prober(self, domain: str, hosted: HostedPlatform,
                         policy: Optional[SmtpAuthPolicy] = None) -> SmtpProber:
        return SmtpProber(self.make_smtp_server(domain, hosted, policy))

    # -- resilience bookkeeping -------------------------------------------

    def fault_exposure_snapshot(self) -> dict[str, int]:
        """Current per-kind injected-fault counters ({} with no injector)."""
        return self.injector.exposure.snapshot() if self.injector else {}

    def fault_exposure_delta(self, before: dict[str, int]) -> dict[str, int]:
        """Faults injected since ``before`` (sorted keys, zeros dropped)."""
        return self.injector.exposure.delta(before) if self.injector else {}

    # -- studies ----------------------------------------------------------------

    def study(self, hosted: HostedPlatform,
              parameters: Optional[StudyParameters] = None,
              max_ingress_tested: int = 4) -> PlatformReport:
        """Run the full direct-access methodology against one platform."""
        study = CdeStudy(self.cde, self.prober, parameters)
        ingress_ips = hosted.platform.ingress_ips[:max_ingress_tested]
        return study.run(ingress_ips)


def build_world(seed: int = 0, **overrides: Any) -> SimulatedInternet:
    """The canonical entry point used by examples, tests and benches."""
    return SimulatedInternet(WorldConfig(seed=seed, **overrides))
