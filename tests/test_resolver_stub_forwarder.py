"""Tests for stub resolvers and forwarding resolvers."""

import pytest

from repro.cache import DnsCache
from repro.dns import RCode, ResolutionError, RRType, name
from repro.net import BernoulliLoss, ConstantLatency, LinkProfile
from repro.resolver import ForwardingResolver
from repro.resolver.forwarder import TransparentForwarder
from repro.study import SinkEndpoint


@pytest.fixture
def platform(world):
    return world.add_platform(n_ingress=2, n_caches=1, n_egress=1)


@pytest.fixture
def stub(world, platform):
    return world.make_stub(platform)


class TestStubResolver:
    def test_resolves_through_platform(self, stub):
        answer = stub.query(name("stub-test.cache.example"))
        assert answer.rcode == RCode.NOERROR
        assert answer.addresses
        assert not answer.from_local_cache

    def test_local_cache_answers_repeat(self, world, stub):
        stub.query(name("repeat.cache.example"))
        since = world.clock.now
        answer = stub.query(name("repeat.cache.example"))
        assert answer.from_local_cache
        assert answer.rtt == 0.0
        # Nothing reached the platform, let alone our nameserver.
        assert world.cde.count_queries_for(name("repeat.cache.example"),
                                           since=since) == 0

    def test_local_cache_respects_ttl(self, world, platform):
        stub = world.make_stub(platform)
        probe = world.cde.unique_name("stub-ttl")
        world.cde.add_a_record(probe, ttl=30)
        stub.query(probe)
        world.clock.advance(31)
        answer = stub.query(probe)
        assert not answer.from_local_cache

    def test_negative_cached_locally(self, world, stub):
        missing = name("nothing.ns.cache.example")
        first = stub.query(missing)
        assert first.rcode == RCode.NXDOMAIN
        second = stub.query(missing)
        assert second.from_local_cache
        assert second.rcode == RCode.NXDOMAIN

    def test_flush_cache(self, stub):
        stub.query(name("flush-test.cache.example"))
        stub.flush_cache()
        answer = stub.query(name("flush-test.cache.example"))
        assert not answer.from_local_cache

    def test_rotates_to_second_resolver_on_timeout(self, world, platform):
        # First resolver address is a black hole; stub must fail over.
        dead_ip = "10.255.255.1"
        world.network.register(dead_ip, SinkEndpoint())
        stub = world.make_stub(platform,
                               resolvers=[dead_ip,
                                          platform.platform.ingress_ips[0]])
        answer = stub.query(name("rotate.cache.example"))
        assert answer.rcode == RCode.NOERROR

    def test_all_resolvers_dead_raises(self, world):
        dead_ip = "10.255.255.2"
        world.network.register(dead_ip, SinkEndpoint())
        stub = world.make_stub(
            world.add_platform(n_ingress=1, n_caches=1, n_egress=1),
            resolvers=[dead_ip])
        stub.network = world.network
        with pytest.raises(ResolutionError):
            stub.query(name("doomed.cache.example"))

    def test_requires_resolver_list(self, world, platform):
        from repro.resolver import StubResolver

        with pytest.raises(ValueError):
            StubResolver("172.16.0.1", [], world.network)


class TestForwardingResolver:
    def make_forwarder(self, world, platform, with_cache=True):
        forwarder = ForwardingResolver(
            name="fw",
            listen_ip="10.200.0.1",
            upstream_ips=[platform.platform.ingress_ips[0]],
            network=world.network,
            cache=DnsCache(cache_id="fw-cache") if with_cache else None,
        )
        forwarder.attach(LinkProfile(latency=ConstantLatency(0.002),
                                     loss=BernoulliLoss(0.0)))
        return forwarder

    def ask(self, world, forwarder, qname, qtype=RRType.A):
        from repro.dns import DnsMessage

        query = DnsMessage.make_query(name(qname), qtype)
        return world.network.query(world.prober_ip, forwarder.listen_ip,
                                   query).response

    def test_forwards_to_upstream(self, world, platform):
        forwarder = self.make_forwarder(world, platform)
        response = self.ask(world, forwarder, "fw-test.cache.example")
        assert response.rcode == RCode.NOERROR
        assert response.answers

    def test_caches_upstream_answers(self, world, platform):
        forwarder = self.make_forwarder(world, platform)
        self.ask(world, forwarder, "fw-cached.cache.example")
        upstream_before = platform.platform.stats.queries
        self.ask(world, forwarder, "fw-cached.cache.example")
        assert platform.platform.stats.queries == upstream_before

    def test_pure_relay_always_forwards(self, world, platform):
        forwarder = self.make_forwarder(world, platform, with_cache=False)
        self.ask(world, forwarder, "fw-relay.cache.example")
        upstream_before = platform.platform.stats.queries
        self.ask(world, forwarder, "fw-relay.cache.example")
        assert platform.platform.stats.queries == upstream_before + 1

    def test_negative_answers_cached(self, world, platform):
        forwarder = self.make_forwarder(world, platform)
        missing = "nothing.ns.cache.example"
        first = self.ask(world, forwarder, missing)
        assert first.rcode == RCode.NXDOMAIN
        upstream_before = platform.platform.stats.queries
        second = self.ask(world, forwarder, missing)
        assert second.rcode == RCode.NXDOMAIN
        assert platform.platform.stats.queries == upstream_before

    def test_forwarder_with_cache_adds_to_cache_census(self, world, platform):
        """A caching forwarder in front of a 1-cache platform measures as 2
        caches — the paper's point that IP-level views miss cache layers."""
        from repro.core import enumerate_direct

        forwarder = self.make_forwarder(world, platform)
        result = enumerate_direct(world.cde, world.prober,
                                  forwarder.listen_ip, q=24)
        # The forwarder's cache absorbs repeats after its first miss; each
        # platform cache fetches once. 1 platform cache + forwarder cache
        # still yields exactly 1 arrival per *distinct* cache that missed:
        # the forwarder only forwards its own misses, so the platform cache
        # is probed once -> 1 arrival.
        assert result.arrivals == 1

    def test_requires_upstreams(self, world):
        with pytest.raises(ValueError):
            ForwardingResolver("fw", "10.200.0.9", [], world.network)


class _RecordingUpstream:
    """An upstream endpoint that logs each query's source and answers."""

    def __init__(self):
        self.sources: list[str] = []

    def handle_message(self, message, src_ip, network):
        self.sources.append(src_ip)
        return message.make_response()


class TestTransparentForwarder:
    def make_forwarder(self, world, upstream_ip):
        forwarder = TransparentForwarder(
            name="tfwd", listen_ip="10.201.0.1", upstream_ip=upstream_ip,
            network=world.network)
        forwarder.attach(LinkProfile(latency=ConstantLatency(0.002),
                                     loss=BernoulliLoss(0.0)))
        return forwarder

    def ask(self, world, forwarder, qname):
        from repro.dns import DnsMessage

        query = DnsMessage.make_query(name(qname), RRType.A)
        return world.network.query(world.prober_ip, forwarder.listen_ip,
                                   query).response

    def test_upstream_sees_the_client_source(self, world):
        upstream = _RecordingUpstream()
        world.network.register("10.201.0.2", upstream)
        forwarder = self.make_forwarder(world, "10.201.0.2")
        response = self.ask(world, forwarder, "tfwd-src.cache.example")
        assert response.rcode == RCode.NOERROR
        # The client's address reaches the upstream, never the forwarder's.
        assert upstream.sources == [world.prober_ip]
        assert forwarder.forwarded == 1

    def test_relays_every_query_without_caching(self, world, platform):
        forwarder = self.make_forwarder(world,
                                        platform.platform.ingress_ips[0])
        self.ask(world, forwarder, "tfwd-relay.cache.example")
        upstream_before = platform.platform.stats.queries
        response = self.ask(world, forwarder, "tfwd-relay.cache.example")
        assert response.rcode == RCode.NOERROR and response.answers
        assert platform.platform.stats.queries == upstream_before + 1
        assert forwarder.forwarded == 2

    def test_dead_upstream_answers_servfail(self, world):
        world.network.register("10.201.0.3", SinkEndpoint())
        forwarder = self.make_forwarder(world, "10.201.0.3")
        response = self.ask(world, forwarder, "tfwd-dead.cache.example")
        assert response.rcode == RCode.SERVFAIL
