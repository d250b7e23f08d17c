"""A shard lane retires each platform from its world once its row is out.

Retirement is what keeps a streamed census's memory flat: the world
unregisters the platform's addresses, drops it, releases its RNG streams,
takes the records its measurement planted back out of the CDE zone and
forgets every authoritative query log.  These tests pin what is left
behind after a lane finishes (down to the CDE zone's indexes), that the
arrival counts survive the forgetting, and that a later platform's inline
log records still reach the live index after an earlier platform's
retirement.
"""

from __future__ import annotations

import pytest

from repro.dns.rrtype import RRType
from repro.net.latency import LogNormalLatency, UniformLatency
from repro.net.loss import BurstLoss, NoLoss
from repro.net.network import LinkProfile
from repro.resolver.platform import ResolutionPlatform
from repro.study import (
    MeasurementBudget,
    ShardLane,
    SimulatedInternet,
    WorldConfig,
    generate_population,
    plan_shards,
    run_shard,
)
from repro.study.engine import _ColdChain, _FastPlan

FAST_BUDGET = MeasurementBudget(confidence=0.9, max_enumeration_queries=96,
                                egress_probe_factor=2.0, min_egress_probes=8,
                                max_egress_probes=32)
CAPS = dict(max_ingress=3, max_caches=3, max_egress=3)
SEED = 5
#: Stream families a world draws per platform (and per client it makes
#: for one); none may outlive the platform's retirement.
PLATFORM_STREAMS = ("platform/", "stub/", "retry/stub/", "smtp-policy/")


def _task(population: str, count: int = 4):
    specs = generate_population(population, count, seed=SEED, **CAPS)
    return plan_shards(specs, base_seed=SEED, n_shards=1,
                       budget=FAST_BUDGET)[0]


def _run(lane):
    """Drive ``lane`` to completion: its rows and its perf sample."""
    rows = list(iter(lane.step, None))
    return rows, lane.perf()


def _arrivals(world):
    return [log.total_recorded for log in world.query_logs()]


def _zone_shape(zone):
    return zone._rrsets, zone._owners, zone._extant, zone._wildcards


def _assert_cde_is_fresh(world, config):
    cde = world.cde
    fresh = SimulatedInternet(config).cde
    assert _zone_shape(cde.zone) == _zone_shape(fresh.zone)
    assert cde.all_query_logs() == [cde.query_log]


class TestLaneRetiresEveryPlatform:
    @pytest.mark.parametrize("population",
                             ["open-resolvers", "email-servers",
                              "ad-network"])
    def test_world_is_back_to_its_empty_shape(self, population,
                                              monkeypatch):
        task = _task(population)
        lane = ShardLane(task)
        world = lane.world
        endpoints = set(world.network._endpoints)
        rows, _ = _run(lane)
        assert len(rows) == len(task.specs)

        assert world.platforms == []
        assert set(world.network._endpoints) == endpoints
        assert not [name for name in world.rng_factory._streams
                    if name.startswith(PLATFORM_STREAMS)]
        logs = world.query_logs()
        assert len(logs) >= 3       # CDE, root, and the base domain's TLD
        assert all(len(log) == 0 for log in logs)
        _assert_cde_is_fresh(world, task.config)

        # The same lane with retirement switched off saw the same arrivals.
        monkeypatch.setattr(SimulatedInternet, "retire_platform",
                            lambda self, hosted: None)
        kept = ShardLane(task)
        kept_rows, _ = _run(kept)
        assert kept_rows == rows
        assert len(kept.world.platforms) == len(task.specs)
        assert [len(log) for log in kept.world.query_logs()] \
            == _arrivals(world)
        assert sum(_arrivals(world)) > 0

    def test_later_cold_replays_land_in_the_live_index(self, monkeypatch):
        """The fused corridor appends to suffix buckets it resolved before
        earlier platforms retired; those records must stay countable."""
        task = _task("open-resolvers", count=3)
        seen = []
        retire = SimulatedInternet.retire_platform

        def check_and_retire(world, hosted):
            base = world.cde.base_domain
            logs = world.query_logs()
            seen.append([(len(log), log.count_under(base, dedupe=False))
                         for log in logs if len(log)])
            retire(world, hosted)

        monkeypatch.setattr(SimulatedInternet, "retire_platform",
                            check_and_retire)
        rows = []
        perf = run_shard(task, rows.append)
        assert len(rows) == 3
        assert perf.fused_probes > 0
        assert perf.fallback_probes == 0
        assert len(seen) == 3
        # Every platform's probes reached the CDE, root and TLD logs, and
        # every entry there sits under the base domain.
        for per_log in seen:
            assert len(per_log) >= 3
            assert all(entries == under for entries, under in per_log)


class TestFaultMemoDiesWithThePlatform:
    """The fault injector's per-address memo holds only live addresses.

    It tests each address's static scopes once; a census of a million
    platforms must not keep a million platforms' verdicts, so the network
    makes it forget every address it unregisters.
    """

    @pytest.mark.parametrize("profile", ["loss-default", "hostile-mix",
                                         "rate-limited"])
    def test_nothing_keyed_by_a_retired_address(self, profile):
        config = WorldConfig(seed=SEED, fault_profile=profile,
                             retry_profile="paper")
        specs = generate_population("open-resolvers", 6, seed=SEED, **CAPS)
        task = plan_shards(specs, base_seed=SEED, n_shards=1, config=config,
                           budget=FAST_BUDGET)[0]
        retired: set[str] = set()
        retire = SimulatedInternet.retire_platform
        memo_sizes = []

        def note_and_retire(world, hosted):
            config = hosted.platform.config
            retired.update(config.ingress_ips, config.egress_ips,
                           hosted.client_ips)
            injector = world.injector
            memo_sizes.append((len(injector._dst_rules),
                               len(injector._request_times)))
            retire(world, hosted)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SimulatedInternet, "retire_platform",
                          note_and_retire)
            lane = ShardLane(task)
            _, perf = _run(lane)
        injector = lane.world.injector
        assert perf.platforms == len(specs)
        # Each platform's probes filled the memo before it retired (and
        # the rate limiter's request windows, under its rule).
        assert all(scopes > 0 for scopes, _ in memo_sizes)
        if profile == "rate-limited":
            assert all(windows > 0 for _, windows in memo_sizes)
        live = set(lane.world.network._endpoints)
        assert retired and not retired & live
        kept = {*injector._dst_rules,
                *(ip for _, ip in injector._request_times)}
        assert not kept & retired
        assert kept <= live


class TestRetirePlanted:
    def test_every_planted_record_and_subzone_goes(self):
        config = WorldConfig(seed=SEED)
        world = SimulatedInternet(config)
        cde = world.cde
        endpoints = set(world.network._endpoints)
        spec = generate_population("email-servers", 1, seed=SEED, **CAPS)[0]
        hosted = world.add_platform_from_spec(spec)
        cde.setup_cname_chain(q=3)
        cde.setup_fresh_chain(links=2)
        cde.add_a_record(cde.unique_name("extra"))
        hierarchy = cde.setup_names_hierarchy(q=2)
        assert world.network.is_registered(hierarchy.ns_ip)
        assert cde.zone.get_rrset(hierarchy.origin, RRType.NS) is not None
        assert len(cde.all_query_logs()) == 2

        world.retire_platform(hosted)
        _assert_cde_is_fresh(world, config)
        assert not world.network.is_registered(hierarchy.ns_ip)
        assert set(world.network._endpoints) == endpoints

    def test_refuses_while_another_platform_is_in_flight(self):
        world = SimulatedInternet(WorldConfig(seed=SEED))
        specs = generate_population("email-servers", 2, seed=SEED, **CAPS)
        first, second = [world.add_platform_from_spec(s) for s in specs]
        chain = world.cde.setup_cname_chain(q=3)

        with pytest.raises(RuntimeError):
            world.retire_platform(first)
        assert world.platforms == [first, second]
        assert world.cde.zone.get_rrset(chain.target, RRType.A) is not None


class TestFusedPlanEligibility:
    def test_default_world_is_fuse_eligible(self):
        world = SimulatedInternet(WorldConfig(seed=SEED))
        spec = generate_population("open-resolvers", 1, seed=SEED, **CAPS)[0]
        hosted = world.add_platform_from_spec(spec)
        assert _FastPlan.build(world, hosted, _ColdChain(world)) is not None

    def test_default_world_upstreams_stay_on_the_fast_tiers(
            self, monkeypatch):
        """Fused probes whose upstreams all fell back to the real resolver
        would still count as fused; pin that none do."""
        calls = []
        resolve_upstream = ResolutionPlatform._resolve_upstream

        def counted(platform, cache, qname, qtype):
            calls.append(qname)
            return resolve_upstream(platform, cache, qname, qtype)

        monkeypatch.setattr(ResolutionPlatform, "_resolve_upstream", counted)
        lane = ShardLane(_task("open-resolvers", count=3))
        _, perf = _run(lane)
        assert perf.fused_probes > 0
        assert perf.fallback_probes == 0
        assert calls == []
        assert lane.cold_chain.levels is not None

    @pytest.mark.parametrize("profile", [
        lambda: LinkProfile(UniformLatency(), NoLoss()),
        lambda: LinkProfile(LogNormalLatency(), BurstLoss()),
    ], ids=["uniform-latency", "burst-loss"])
    def test_out_of_gate_ingress_takes_the_structured_path(
            self, profile, monkeypatch):
        task = _task("open-resolvers", count=3)
        add_platform = SimulatedInternet.add_platform_from_spec

        def run(fused):
            def shaped(world, spec):
                hosted = add_platform(world, spec)
                if spec is task.specs[1]:
                    world.network.register_many(
                        hosted.platform.ingress_ips, hosted.platform,
                        profile())
                return hosted

            with monkeypatch.context() as patch:
                patch.setattr(SimulatedInternet, "add_platform_from_spec",
                              shaped)
                if not fused:
                    patch.setattr(_FastPlan, "build", staticmethod(
                        lambda *args, **kwargs: None))
                lane = ShardLane(task)
                rows, perf = _run(lane)
            return rows, perf, lane.world.network.stats

        rows, perf, stats = run(fused=True)
        structured_rows, _, structured_stats = run(fused=False)
        assert perf.fused_probes > 0
        assert perf.fallback_probes == rows[1].queries_used
        assert rows == structured_rows
        assert stats == structured_stats
