"""Tests for the SimulatedInternet fixture itself."""

import hashlib

import pytest

from repro.dns import DnsMessage, RCode, RRType
from repro.study import (
    PopulationGenerator,
    SimulatedInternet,
    WorldConfig,
    build_world,
    generate_population,
    scan_for_open_resolvers,
)


class TestWorldConstruction:
    def test_build_world_defaults(self):
        world = build_world(seed=3)
        assert world.config.seed == 3
        assert world.network.is_registered(world.prober_ip)
        assert world.network.is_registered(world.cde.ns_ip)
        assert world.network.is_registered(world.hierarchy.root_ip)

    def test_overrides_via_kwargs(self):
        world = build_world(seed=3, lossy_platforms=False,
                            base_domain="probe.test")
        assert str(world.cde.base_domain) == "probe.test"
        assert not world.config.lossy_platforms

    def test_wire_fidelity_propagates(self):
        world = build_world(seed=3, wire_fidelity=True)
        assert world.network.wire_fidelity

    def test_clock_is_shared(self):
        world = build_world(seed=3)
        assert world.clock is world.network.clock


class TestPlatformFactory:
    def test_address_blocks_do_not_overlap(self, world):
        seen: set[str] = set()
        for _ in range(10):
            hosted = world.add_platform(n_ingress=3, n_caches=1, n_egress=3)
            ips = set(hosted.platform.ingress_ips) | \
                set(hosted.platform.egress_ips)
            assert not ips & seen
            seen |= ips

    def test_platform_names_unique(self, world):
        names = {world.add_platform().spec.name for _ in range(5)}
        assert len(names) == 5

    def test_lossy_worlds_apply_country_loss(self, lossy_world):
        hosted = lossy_world.add_platform(country="IR")
        profile = lossy_world.network.profile_of(
            hosted.platform.ingress_ips[0])
        assert profile.loss.rate == 0.11

    def test_lossless_worlds_use_no_loss(self, world):
        hosted = world.add_platform(country="IR")
        profile = world.network.profile_of(hosted.platform.ingress_ips[0])
        from repro.net import NoLoss

        assert isinstance(profile.loss, NoLoss)

    def test_ttl_clamps_forwarded(self, world):
        hosted = world.add_platform(min_ttl=60, max_ttl=120)
        cache = hosted.platform.caches[0]
        assert cache.min_ttl == 60
        assert cache.max_ttl == 120


class TestClientFactories:
    def test_stub_hosts_get_unique_addresses(self, world,
                                             single_cache_platform):
        first = world.make_stub(single_cache_platform)
        second = world.make_stub(single_cache_platform)
        assert first.host_ip != second.host_ip

    def test_browser_wired_to_platform(self, world, single_cache_platform):
        browser = world.make_browser(single_cache_platform)
        result = browser.fetch("http://factory-test.cache.example/")
        assert result.resolved

    def test_smtp_prober_default_policy_nonempty(self, world,
                                                 single_cache_platform):
        """measure_via_smtp requires at least one lookup per message even
        when the drawn policy is empty — verify the fallback works through
        the factory path."""
        from repro.study.measurement import measure_via_smtp

        measurement = measure_via_smtp(world, single_cache_platform)
        assert measurement.measured_caches == 1

    def test_study_samples_limited_ingress(self, world):
        hosted = world.add_platform(n_ingress=8, n_caches=1, n_egress=1)
        report = world.study(hosted, max_ingress_tested=3)
        assert len(report.ingress_ips_tested) == 3


class TestScanIntegrityIntegration:
    def test_flagged_resolvers_excluded(self, monkeypatch):
        from repro.core import integrity as integrity_module
        from repro.core.integrity import IntegrityIssue, IntegrityReport

        world = SimulatedInternet(WorldConfig(seed=5, lossy_platforms=False))
        specs = generate_population("open-resolvers", 6, seed=5,
                                    max_ingress=2, max_caches=2, max_egress=2)

        flagged_ips = set()
        real_check = integrity_module.check_resolver_integrity

        def selective_check(cde, prober, ingress_ip, **kwargs):
            # Flag every other resolver as a hijacker.
            if len(flagged_ips) % 2 == 0:
                flagged_ips.add(ingress_ip)
                return IntegrityReport(
                    ingress_ip=ingress_ip,
                    issues=[IntegrityIssue.NXDOMAIN_HIJACK])
            flagged_ips.add(ingress_ip)
            return real_check(cde, prober, ingress_ip, **kwargs)

        monkeypatch.setattr(integrity_module, "check_resolver_integrity",
                            selective_check)
        result = scan_for_open_resolvers(world, specs, closed_fraction=0.0,
                                         integrity_check=True)
        assert result.flagged >= 1
        assert result.open_count + result.flagged == 6


class TestTransparentForwarderPopulation:
    #: sha256 of the first 200 seed-11 open-resolver draws, over the
    #: fields that predate the forwarder knob.
    SEED11_SPECS_SHA256 = (
        "6e499bcd2ee7192e4569c75464566a9f6a8dc07ae7bd867f8d2b9f3fa629328d")

    def test_zero_share_draws_the_default_specs(self):
        default = PopulationGenerator("open-resolvers", seed=11)
        zero = PopulationGenerator("open-resolvers", seed=11,
                                   forwarder_share=0.0)
        specs = zero.draw_many(200)
        assert specs == default.draw_many(200)
        assert not any(spec.transparent_forwarder for spec in specs)
        # Share 0 draws no extra randomness, so the sequence is the one
        # every seed produced before the knob existed.
        fields = [(s.operator, s.country, s.n_ingress, s.n_caches,
                   s.n_egress, s.selector_name) for s in specs]
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == \
            self.SEED11_SPECS_SHA256

    def test_full_share_fronts_every_platform(self):
        world = SimulatedInternet(WorldConfig(seed=11, lossy_platforms=False))
        specs = PopulationGenerator("open-resolvers", seed=11, max_ingress=2,
                                    max_caches=2, max_egress=2,
                                    forwarder_share=1.0).draw_many(12)
        hosted = [world.add_platform_from_spec(spec) for spec in specs]
        for entry in hosted:
            assert entry.forwarder is not None
            assert entry.forwarder.upstream_ip == \
                entry.platform.ingress_ips[0]
            assert entry.forwarder.listen_ip not in \
                entry.platform.ingress_ips
            assert world.network.is_registered(entry.forwarder.listen_ip)

    @pytest.mark.parametrize("population", ["open-resolvers",
                                            "email-servers", "ad-network"])
    def test_no_cache_is_shared_between_platforms(self, population):
        world = SimulatedInternet(WorldConfig(seed=5, lossy_platforms=False))
        specs = PopulationGenerator(population, seed=5, max_ingress=3,
                                    max_caches=4, max_egress=3,
                                    forwarder_share=0.5).draw_many(40)
        owner: dict[int, str] = {}
        for spec in specs:
            hosted = world.add_platform_from_spec(spec)
            assert hosted.platform.caches
            for cache in hosted.platform.caches:
                assert owner.setdefault(id(cache), spec.name) == spec.name
        assert len(owner) == sum(spec.n_caches for spec in specs)
