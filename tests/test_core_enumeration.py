"""Tests for cache enumeration, bypasses and IP↔cache mapping — the heart
of the paper (§IV-B, §V-B)."""

import pytest

from repro.core import (
    CnameChainBypass,
    NamesHierarchyBypass,
    enumerate_adaptive,
    enumerate_direct,
    enumerate_direct_via_cname,
    enumerate_indirect_cname,
    enumerate_indirect_hierarchy,
    enumerate_two_phase,
    discover_egress_ips,
    map_ingress_to_clusters,
    queries_for_confidence,
)
from repro.core import infrastructure
from repro.dns import RRType
from repro.net.latency import ConstantLatency
from repro.net.loss import BernoulliLoss
from repro.net.network import LinkProfile
from repro.study import SimulatedInternet, WorldConfig


def ingress_of(hosted):
    return hosted.platform.ingress_ips[0]


class TestDirectEnumeration:
    """§IV-B1a: ω arrivals at our nameserver = the cache count."""

    @pytest.mark.parametrize("n_caches", [1, 2, 4, 8])
    def test_exact_count_uniform_selection(self, world, n_caches):
        hosted = world.add_platform(n_ingress=1, n_caches=n_caches,
                                    n_egress=1)
        q = queries_for_confidence(n_caches, 0.999)
        result = enumerate_direct(world.cde, world.prober, ingress_of(hosted),
                                  q=q)
        assert result.arrivals == n_caches
        assert result.cache_count == n_caches

    def test_round_robin_needs_only_n_queries(self, world):
        """§V-B: 'Assuming a round robin cache selection ... q = n DNS
        requests would be needed.'"""
        hosted = world.add_platform(n_ingress=1, n_caches=5, n_egress=1,
                                    selector="round-robin")
        result = enumerate_direct(world.cde, world.prober, ingress_of(hosted),
                                  q=5)
        assert result.arrivals == 5

    def test_underprovisioned_q_undercounts(self, world):
        """'If the number of caches n is greater than q, we underestimate.'"""
        hosted = world.add_platform(n_ingress=1, n_caches=8, n_egress=1)
        result = enumerate_direct(world.cde, world.prober, ingress_of(hosted),
                                  q=3)
        assert result.arrivals <= 3
        # The occupancy estimate may extrapolate above the raw arrivals.
        assert result.estimate.lower_bound == result.arrivals

    def test_qname_hash_selector_pins_one_cache(self, world):
        """Deterministic per-name selection: repeats of one name only ever
        probe one cache — the technique measures 'caches used per name'."""
        hosted = world.add_platform(n_ingress=1, n_caches=6, n_egress=1,
                                    selector="qname-hash")
        result = enumerate_direct(world.cde, world.prober, ingress_of(hosted),
                                  q=40)
        assert result.arrivals == 1

    def test_arrivals_never_exceed_queries(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=4, n_egress=1)
        result = enumerate_direct(world.cde, world.prober, ingress_of(hosted),
                                  q=2)
        assert result.arrivals <= 2

    def test_invalid_q(self, world, single_cache_platform):
        with pytest.raises(ValueError):
            enumerate_direct(world.cde, world.prober,
                             ingress_of(single_cache_platform), q=0)


class TestTwoPhaseEnumeration:
    """§V-B init/validate: N seeds planted, then re-requested."""

    def test_single_cache_validates_everything(self, world,
                                               single_cache_platform):
        result = enumerate_two_phase(world.cde, world.prober,
                                     ingress_of(single_cache_platform),
                                     seeds=20)
        assert result.init_arrivals == 20
        assert result.validate_arrivals == 0
        assert result.validated_seeds == 20
        assert result.cache_count == 1

    def test_estimate_tracks_cache_count(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=4, n_egress=1)
        result = enumerate_two_phase(world.cde, world.prober,
                                     ingress_of(hosted), seeds=200)
        assert result.estimate.estimate == pytest.approx(4, rel=0.4)

    def test_success_rate_matches_formula(self, world):
        """Validated seeds ≈ N·(1−e^{−N/n})² — here N >> n so nearly N...
        with the exact per-seed hit probability 1/n."""
        hosted = world.add_platform(n_ingress=1, n_caches=2, n_egress=1)
        seeds = 300
        result = enumerate_two_phase(world.cde, world.prober,
                                     ingress_of(hosted), seeds=seeds)
        # P(validate hit) = 1/n = 0.5.
        assert result.validated_seeds == pytest.approx(seeds / 2, rel=0.2)

    def test_invalid_seeds(self, world, single_cache_platform):
        with pytest.raises(ValueError):
            enumerate_two_phase(world.cde, world.prober,
                                ingress_of(single_cache_platform), seeds=0)


class TestAdaptiveEnumeration:
    @pytest.mark.parametrize("n_caches", [1, 3, 6])
    def test_converges_without_prior(self, world, n_caches):
        hosted = world.add_platform(n_ingress=1, n_caches=n_caches,
                                    n_egress=1)
        result = enumerate_adaptive(world.cde, world.prober,
                                    ingress_of(hosted), confidence=0.99)
        assert result.cache_count == n_caches

    def test_budget_meets_coupon_bound(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=4, n_egress=1)
        result = enumerate_adaptive(world.cde, world.prober,
                                    ingress_of(hosted), confidence=0.99)
        assert result.queries_sent >= queries_for_confidence(
            result.arrivals, 0.99)

    def test_max_q_cap_respected(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=8, n_egress=1)
        result = enumerate_adaptive(world.cde, world.prober,
                                    ingress_of(hosted), max_q=10)
        assert result.queries_sent <= 10


    @pytest.mark.xfail(
        strict=True, raises=ValueError,
        reason="arrivals exceed probes when a cache re-fetches inside the "
               "train (ROADMAP direction 1)")
    def test_short_ttl_under_prober_loss_stays_countable(self, monkeypatch):
        # The wildcard answer lives 1 s, shorter than the probe train, and
        # the prober leg loses 21% of messages: a retransmitted probe can
        # reach a cache whose copy has expired, and the re-fetch arrives
        # at the nameserver as one more query than probes were sent.
        monkeypatch.setattr(infrastructure, "PROBE_TTL", 1)
        lossy = LinkProfile(ConstantLatency(0.01), BernoulliLoss(0.21))
        for seed in range(12):
            world = SimulatedInternet(WorldConfig(seed=seed,
                                                  lossy_platforms=False))
            network = world.network
            network.register(world.prober_ip,
                             network.endpoint_at(world.prober_ip), lossy)
            hosted = world.add_platform(n_ingress=1, n_caches=4, n_egress=1,
                                        selector="round-robin")
            result = enumerate_adaptive(world.cde, world.prober,
                                        ingress_of(hosted))
            assert result.arrivals <= result.queries_sent


class TestBypasses:
    """§IV-B2: counting through indirect probers despite local caches."""

    @pytest.mark.parametrize("n_caches", [1, 3, 5])
    def test_cname_chain_via_browser(self, world, n_caches):
        hosted = world.add_platform(n_ingress=1, n_caches=n_caches,
                                    n_egress=1)
        prober = world.make_browser_prober(hosted)
        budget = queries_for_confidence(n_caches, 0.999)
        result = enumerate_indirect_cname(world.cde, prober, q=budget)
        assert result.arrivals == n_caches

    @pytest.mark.parametrize("n_caches", [1, 3, 5])
    def test_hierarchy_via_browser(self, world, n_caches):
        hosted = world.add_platform(n_ingress=1, n_caches=n_caches,
                                    n_egress=1)
        prober = world.make_browser_prober(hosted)
        budget = queries_for_confidence(n_caches, 0.999)
        result = enumerate_indirect_hierarchy(world.cde, prober, q=budget)
        assert result.arrivals == n_caches

    def test_cname_chain_via_smtp(self, world):
        from repro.client import SmtpAuthPolicy

        hosted = world.add_platform(n_ingress=1, n_caches=3, n_egress=1)
        prober = world.make_smtp_prober(
            "corp.example", hosted,
            SmtpAuthPolicy(checks_spf_txt=True, checks_dmarc=True,
                           resolves_bounce_mx=True))
        result = enumerate_indirect_cname(world.cde, prober, q=40,
                                          count_qtype=None)
        assert result.arrivals == 3

    def test_local_caches_defeat_naive_repeats(self, world):
        """Without a bypass, repeating one hostname through a browser never
        reaches the platform again — the limitation that motivates §IV-B2."""
        hosted = world.add_platform(n_ingress=1, n_caches=4, n_egress=1)
        prober = world.make_browser_prober(hosted)
        probe = world.cde.unique_name("naive")
        since = world.clock.now
        prober.trigger([probe] * 30)  # the same name, 30 times
        arrivals = world.cde.count_queries_for(probe, since=since)
        assert arrivals == 1  # only the first fetch escaped the local caches

    def test_cname_chain_bypasses_local_caches(self, world):
        """The same 30 probes as distinct aliases cover all caches."""
        hosted = world.add_platform(n_ingress=1, n_caches=4, n_egress=1)
        prober = world.make_browser_prober(hosted)
        result = CnameChainBypass(world.cde).run(prober, q=30)
        assert result.arrivals == 4

    def test_hierarchy_parent_sees_one_query_per_cache(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=2, n_egress=1,
                                    selector="round-robin")
        prober = world.make_browser_prober(hosted)
        result = NamesHierarchyBypass(world.cde).run(prober, q=10)
        assert result.arrivals == 2
        # All 10 leaf queries reached the subzone's own nameserver.
        hierarchy = world.cde._hierarchies[-1]
        assert len(hierarchy.server.query_log) == 10

    def test_direct_adapter_matches_direct_method(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=3, n_egress=1)
        via_cname = enumerate_direct_via_cname(
            world.cde, world.prober, ingress_of(hosted), q=40)
        direct = enumerate_direct(world.cde, world.prober,
                                  ingress_of(hosted), q=40)
        assert via_cname.arrivals == direct.arrivals == 3


class TestIngressMapping:
    """§IV-B1b honey-record clustering."""

    def test_shared_pool_single_cluster(self, world):
        hosted = world.add_platform(n_ingress=4, n_caches=2, n_egress=1)
        result = map_ingress_to_clusters(world.cde, world.prober,
                                         hosted.platform.ingress_ips)
        assert result.n_clusters == 1
        assert sorted(result.clusters[0].member_ips) == \
            sorted(hosted.platform.ingress_ips)

    def test_distinct_platforms_distinct_clusters(self, world):
        first = world.add_platform(n_ingress=2, n_caches=2, n_egress=1)
        second = world.add_platform(n_ingress=2, n_caches=2, n_egress=1)
        ips = first.platform.ingress_ips + second.platform.ingress_ips
        result = map_ingress_to_clusters(world.cde, world.prober, ips)
        assert result.n_clusters == 2
        cluster_a = result.cluster_of(first.platform.ingress_ips[0])
        assert set(cluster_a.member_ips) == set(first.platform.ingress_ips)

    def test_cluster_of_unknown_ip(self, world, single_cache_platform):
        result = map_ingress_to_clusters(
            world.cde, world.prober,
            single_cache_platform.platform.ingress_ips)
        assert result.cluster_of("203.0.113.250") is None

    def test_empty_input_rejected(self, world):
        with pytest.raises(ValueError):
            map_ingress_to_clusters(world.cde, world.prober, [])

    def test_three_platforms_interleaved(self, world):
        platforms = [world.add_platform(n_ingress=2, n_caches=1, n_egress=1)
                     for _ in range(3)]
        ips = [ip for hosted in platforms
               for ip in hosted.platform.ingress_ips]
        # Interleave so clustering cannot rely on adjacency.
        ips = ips[::2] + ips[1::2]
        result = map_ingress_to_clusters(world.cde, world.prober, ips)
        assert result.n_clusters == 3


class TestEgressDiscovery:
    @pytest.mark.parametrize("n_egress", [1, 3, 6])
    def test_full_census(self, world, n_egress):
        hosted = world.add_platform(n_ingress=1, n_caches=1,
                                    n_egress=n_egress)
        result = discover_egress_ips(world.cde, world.prober,
                                     ingress_of(hosted),
                                     probes=max(24, 8 * n_egress))
        assert result.egress_ips == set(hosted.platform.egress_ips)

    def test_sources_are_never_ingress(self, world):
        hosted = world.add_platform(n_ingress=2, n_caches=1, n_egress=2)
        result = discover_egress_ips(world.cde, world.prober,
                                     ingress_of(hosted), probes=24)
        assert not result.egress_ips & set(hosted.platform.ingress_ips)

    def test_probe_count_validated(self, world, single_cache_platform):
        with pytest.raises(ValueError):
            discover_egress_ips(world.cde, world.prober,
                                ingress_of(single_cache_platform), probes=0)
