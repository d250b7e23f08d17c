"""Tests for resolution platforms and the iterative engine underneath."""

import pytest

from repro.dns import DnsMessage, RCode, RRType, name
from repro.resolver import PlatformConfig, RoundRobinSelector


def ask(world, ingress_ip, qname, qtype=RRType.A, rd=True):
    query = DnsMessage.make_query(name(qname), qtype, recursion_desired=rd)
    return world.network.query(world.prober_ip, ingress_ip, query).response


@pytest.fixture
def platform(world):
    return world.add_platform(n_ingress=2, n_caches=3, n_egress=2)


class TestConfigValidation:
    def test_requires_ingress(self):
        with pytest.raises(ValueError):
            PlatformConfig(name="x", ingress_ips=[], egress_ips=["1.1.1.1"],
                           n_caches=1)

    def test_requires_egress(self):
        with pytest.raises(ValueError):
            PlatformConfig(name="x", ingress_ips=["1.1.1.1"], egress_ips=[],
                           n_caches=1)

    def test_requires_cache(self):
        with pytest.raises(ValueError):
            PlatformConfig(name="x", ingress_ips=["1.1.1.1"],
                           egress_ips=["1.1.1.2"], n_caches=0)

    @pytest.mark.parametrize("min_ttl, max_ttl", [
        (-10, -5), (-1, None), (None, -1), (60, 30)])
    def test_rejects_a_ttl_window_the_caches_would_reject(
            self, min_ttl, max_ttl):
        # DnsCache's window is 0 <= min_ttl <= max_ttl; a platform outside
        # it would build caches whose first negative clamp raises mid-probe.
        with pytest.raises(ValueError, match="min_ttl"):
            PlatformConfig(name="x", ingress_ips=["1.1.1.1"],
                           egress_ips=["1.1.1.2"], n_caches=1,
                           min_ttl=min_ttl, max_ttl=max_ttl)

    @pytest.mark.parametrize("min_ttl, max_ttl", [
        (None, None), (0, 0), (60, 60), (60, None), (None, 0)])
    def test_accepts_the_cache_window(self, min_ttl, max_ttl):
        PlatformConfig(name="x", ingress_ips=["1.1.1.1"],
                       egress_ips=["1.1.1.2"], n_caches=1,
                       min_ttl=min_ttl, max_ttl=max_ttl)


class TestResolution:
    def test_resolves_wildcard_name(self, world, platform):
        ingress = platform.platform.ingress_ips[0]
        response = ask(world, ingress, "whatever.cache.example")
        assert response.rcode == RCode.NOERROR
        assert response.answers[0].rdata.address == world.cde.answer_ip
        assert response.recursion_available

    def test_nxdomain_propagates(self, world, platform):
        ingress = platform.platform.ingress_ips[0]
        # Below an existing leaf: a genuine NXDOMAIN despite the wildcard.
        response = ask(world, ingress, "below.ns.cache.example")
        assert response.rcode == RCode.NXDOMAIN

    def test_nodata_propagates(self, world, platform):
        ingress = platform.platform.ingress_ips[0]
        response = ask(world, ingress, "whatever.cache.example", RRType.TXT)
        assert response.rcode == RCode.NOERROR
        assert not response.answers

    def test_cname_chain_followed(self, world, platform):
        chain = world.cde.setup_cname_chain(1)
        ingress = platform.platform.ingress_ips[0]
        response = ask(world, ingress, str(chain.aliases[0]))
        types = [record.rtype for record in response.answers]
        assert RRType.CNAME in types and RRType.A in types

    def test_refuses_non_recursive(self, world, platform):
        ingress = platform.platform.ingress_ips[0]
        response = ask(world, ingress, "whatever.cache.example", rd=False)
        assert response.rcode == RCode.REFUSED

    def test_all_ingress_ips_serve(self, world, platform):
        for ingress in platform.platform.ingress_ips:
            response = ask(world, ingress, "multi-ingress.cache.example")
            assert response.rcode == RCode.NOERROR

    def test_upstream_sources_are_egress_ips(self, world, platform):
        ingress = platform.platform.ingress_ips[0]
        for index in range(12):
            ask(world, ingress, f"egress-check-{index}.cache.example")
        sources = world.cde.egress_sources()
        assert sources <= set(platform.platform.egress_ips)
        assert sources  # at least one egress used

    def test_open_to_restriction(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        hosted.platform.config.open_to = "172.16.0.0/12"
        ingress = hosted.platform.ingress_ips[0]
        refused = ask(world, ingress, "closed.cache.example")
        assert refused.rcode == RCode.REFUSED


class TestCaching:
    def test_second_query_from_cache(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        ingress = hosted.platform.ingress_ips[0]
        ask(world, ingress, "cached.cache.example")
        upstream_before = hosted.platform.stats.upstream_queries
        ask(world, ingress, "cached.cache.example")
        assert hosted.platform.stats.upstream_queries == upstream_before
        assert hosted.platform.stats.cache_hits >= 1

    def test_answer_ttl_ages_in_cache(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        ingress = hosted.platform.ingress_ips[0]
        probe = world.cde.unique_name("age")
        world.cde.add_a_record(probe, ttl=300)
        first = ask(world, ingress, str(probe))
        world.clock.advance(100)
        second = ask(world, ingress, str(probe))
        assert second.answers[0].ttl <= first.answers[0].ttl - 100

    def test_expired_record_refetched(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        ingress = hosted.platform.ingress_ips[0]
        probe = world.cde.unique_name("exp")
        world.cde.add_a_record(probe, ttl=30)
        ask(world, ingress, str(probe))
        world.clock.advance(31)
        since = world.clock.now
        ask(world, ingress, str(probe))
        assert world.cde.count_queries_for(probe, since=since) == 1

    def test_negative_answers_cached(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        ingress = hosted.platform.ingress_ips[0]
        missing = "nothing.ns.cache.example"
        ask(world, ingress, missing)
        since = world.clock.now
        ask(world, ingress, missing)
        assert world.cde.count_queries_for(name(missing), since=since) == 0

    def test_each_cache_fetches_once(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=3, n_egress=1,
                                    selector="round-robin")
        ingress = hosted.platform.ingress_ips[0]
        probe = world.cde.unique_name("rr")
        since = world.clock.now
        for _ in range(9):
            ask(world, ingress, str(probe))
        # Round robin: exactly one upstream fetch per cache.
        assert world.cde.count_queries_for(probe, since=since) == 3

    def test_infrastructure_cached_across_names(self, world):
        """After one resolution, the NS/glue of cache.example are cached, so
        later fresh names skip the root/TLD walk."""
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        ingress = hosted.platform.ingress_ips[0]
        ask(world, ingress, "first.cache.example")
        root_log = world.hierarchy.root_server.query_log
        root_queries_before = len(root_log)
        ask(world, ingress, "second.cache.example")
        assert len(root_log) == root_queries_before


class TestCacheFailover:
    def test_offline_cache_failover(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=2, n_egress=1,
                                    selector="round-robin")
        hosted.platform.take_cache_offline(0)
        ingress = hosted.platform.ingress_ips[0]
        for index in range(4):
            response = ask(world, ingress, f"failover-{index}.cache.example")
            assert response.rcode == RCode.NOERROR
        assert hosted.platform.n_online_caches == 1

    def test_all_caches_offline_servfail(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        hosted.platform.take_cache_offline(0)
        ingress = hosted.platform.ingress_ips[0]
        response = ask(world, ingress, "dead.cache.example")
        assert response.rcode == RCode.SERVFAIL

    def test_bring_cache_online(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=2, n_egress=1)
        hosted.platform.take_cache_offline(1)
        hosted.platform.bring_cache_online(1)
        assert hosted.platform.n_online_caches == 2

    def test_offline_bad_index(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=2, n_egress=1)
        with pytest.raises(IndexError):
            hosted.platform.take_cache_offline(9)


class TestIterativeEngine:
    def test_names_hierarchy_referral_walk(self, world):
        """The engine must learn the sub-zone delegation from the parent and
        then query the sub-zone's nameserver directly."""
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        hierarchy = world.cde.setup_names_hierarchy(q=3)
        ingress = hosted.platform.ingress_ips[0]
        since = world.clock.now
        for leaf in hierarchy.names:
            response = ask(world, ingress, str(leaf))
            assert response.rcode == RCode.NOERROR
        # One referral fetch at the parent (single cache), the rest direct.
        assert world.cde.count_queries_under(hierarchy.origin,
                                             since=since) == 1
        assert len(hierarchy.server.query_log) == 3

    def test_cname_restart_uses_same_cache(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        chain = world.cde.setup_cname_chain(2)
        ingress = hosted.platform.ingress_ips[0]
        ask(world, ingress, str(chain.aliases[0]))
        since = world.clock.now
        response = ask(world, ingress, str(chain.aliases[1]))
        # Target already cached: only the new alias was fetched.
        assert world.cde.count_queries_for(chain.target, since=since) == 0
        types = [record.rtype for record in response.answers]
        assert types == [RRType.CNAME, RRType.A]

    def test_round_robin_selector_used(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=4, n_egress=1,
                                    selector="round-robin")
        assert isinstance(hosted.platform.cache_selector, RoundRobinSelector)


class TestSingleCacheWalk:
    """A miss reads the cache once: the platform's chain walk misses at
    (name, qtype) and (name, CNAME), and the resolver's first link goes
    straight to the authorities instead of reading both keys again."""

    def warm_platform(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        # The first query caches the delegation down to the CDE zone.
        ask(world, hosted.platform.ingress_ips[0], "warm.cache.example")
        return hosted

    def counters(self, hosted):
        cache = hosted.platform.caches[0]
        return (cache.stats.misses, cache.stats.hits,
                hosted.platform.stats.upstream_queries)

    def test_fresh_name_under_a_warm_delegation(self, world):
        hosted = self.warm_platform(world)
        ingress = hosted.platform.ingress_ips[0]
        for index in range(4):
            before = self.counters(hosted)
            response = ask(world, ingress, f"fresh-{index}.cache.example")
            assert response.rcode == RCode.NOERROR and response.answers
            misses, hits, upstream = (
                after - was for after, was
                in zip(self.counters(hosted), before))
            # Two chain-walk misses, then the authority walk's miss at the
            # name's own NS key and hits on the (base, NS), (ns, A) pair.
            assert (misses, hits, upstream) == (3, 2, 1)

    def test_cached_cname_target_is_read_from_the_cache(self, world):
        hosted = self.warm_platform(world)
        ingress = hosted.platform.ingress_ips[0]
        chain = world.cde.setup_cname_chain(1)
        ask(world, ingress, str(chain.target))
        before = self.counters(hosted)
        response = ask(world, ingress, str(chain.aliases[0]))
        assert [record.rtype for record in response.answers] == [
            RRType.CNAME, RRType.A]
        misses, hits, upstream = (
            after - was for after, was in zip(self.counters(hosted), before))
        # Only the alias goes upstream: the target after it is a hit.
        assert (misses, hits, upstream) == (3, 3, 1)

    def test_prefetch_serves_the_hit_and_refreshes_once(self, world):
        hosted = self.warm_platform(world)
        hosted.platform.config.prefetch_horizon = 60.0
        ingress = hosted.platform.ingress_ips[0]
        probe = world.cde.unique_name("pf")
        world.cde.add_a_record(probe, ttl=100)
        ask(world, ingress, str(probe))
        world.clock.advance(50)
        before = self.counters(hosted)
        response = ask(world, ingress, str(probe))
        assert response.answers[0].ttl <= 50
        misses, hits, upstream = (
            after - was for after, was in zip(self.counters(hosted), before))
        # The served hit, then the refresh's authority walk.
        assert (misses, hits, upstream) == (1, 3, 1)
        assert hosted.platform.stats.prefetches == 1
