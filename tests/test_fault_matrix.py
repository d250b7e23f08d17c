"""Fault kind × technique matrix: faults may degrade counts, never inflate.

Every cell builds a fresh world, installs a single-kind fault plan, and runs
one counting technique against a platform of known size.  The contract the
resilience layer promises:

* log-based techniques (direct, CNAME chain, names hierarchy) never report
  more caches than exist — faults can only lose probes, and a lost probe is
  an undercount, not a phantom cache;
* the timing side channel *can* be fooled by a latency spike (a slow hit is
  indistinguishable from a miss) — that cell must be flagged by the recorded
  fault exposure, never silently wrong;
* probes that exhaust their retry budget surface ``gave_up`` on the result
  and on the measurement row, so a degraded run is always distinguishable
  from a clean one.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    enumerate_by_timing,
    enumerate_direct,
    enumerate_direct_via_cname,
    enumerate_indirect_hierarchy,
)
from repro.net.faults import (
    PLATFORM_PREFIX,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRule,
    TimeWindow,
)
from repro.net import SimClock
from repro.study import MeasurementBudget, build_world, measure_population
from repro.study.population import generate_population

SEED = 7
N_CACHES = 3
Q = 48

#: One rule per fault kind, scoped to the platform prefix.  Probabilities
#: are chosen so every cell actually experiences its fault while the
#: paper retry policy still completes in bounded virtual time.
RULES = {
    FaultKind.DROP_REQUEST: dict(probability=0.2),
    FaultKind.DROP_RESPONSE: dict(probability=0.2),
    FaultKind.SERVFAIL: dict(probability=0.15),
    FaultKind.REFUSED: dict(probability=0.15),
    FaultKind.TRUNCATE: dict(probability=0.5),
    FaultKind.LATENCY_SPIKE: dict(probability=0.3, extra_latency=0.4),
    FaultKind.RATE_LIMIT: dict(burst=12, burst_window=1.0),
}

LOG_BASED = ("direct", "cname-chain", "names-hierarchy")
TECHNIQUES = LOG_BASED + ("timing",)


def _world_with_fault(kind: FaultKind):
    """A retry-enabled world afflicted by exactly one kind of fault."""
    world = build_world(seed=SEED, lossy_platforms=False,
                        retry_profile="paper")
    plan = FaultPlan(name=f"only-{kind.value}", rules=(
        FaultRule(kind=kind, dst_prefix=PLATFORM_PREFIX, **RULES[kind]),))
    injector = FaultInjector(plan, world.clock,
                             world.rng_factory.stream("faults"))
    world.network.install_faults(injector)
    world.injector = injector
    return world


def _run(technique: str, world, hosted) -> int:
    """One technique's cache count against ``hosted``."""
    ingress = hosted.platform.ingress_ips[0]
    if technique == "direct":
        return enumerate_direct(world.cde, world.prober, ingress,
                                q=Q).arrivals
    if technique == "cname-chain":
        return enumerate_direct_via_cname(world.cde, world.prober, ingress,
                                          q=Q).arrivals
    if technique == "names-hierarchy":
        browser = world.make_browser_prober(hosted)
        return enumerate_indirect_hierarchy(world.cde, browser, q=Q).arrivals
    if technique == "timing":
        return enumerate_by_timing(world.cde, world.prober, ingress,
                                   probes=32).miss_latency_count
    raise AssertionError(technique)


class TestFaultTechniqueMatrix:
    @pytest.mark.parametrize("technique", LOG_BASED)
    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_log_based_techniques_never_overcount(self, kind, technique):
        world = _world_with_fault(kind)
        hosted = world.add_platform(n_ingress=1, n_caches=N_CACHES,
                                    n_egress=2)
        counted = _run(technique, world, hosted)
        assert counted <= N_CACHES, (
            f"{technique} overcounted under {kind.value}: "
            f"{counted} > {N_CACHES}")

    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_timing_overcounts_only_when_flagged(self, kind):
        """The side channel may inflate, but never silently."""
        world = _world_with_fault(kind)
        hosted = world.add_platform(n_ingress=1, n_caches=N_CACHES,
                                    n_egress=2)
        counted = _run("timing", world, hosted)
        exposure = world.fault_exposure_snapshot()
        if counted > N_CACHES:
            # Only a latency fault can masquerade a hit as a miss, and the
            # injector must have recorded having fired.
            assert kind is FaultKind.LATENCY_SPIKE
            assert exposure.get("latency-spike", 0) > 0

    def test_latency_spikes_recorded_during_timing(self):
        """The dangerous cell is visibly flagged even when it gets lucky."""
        world = _world_with_fault(FaultKind.LATENCY_SPIKE)
        hosted = world.add_platform(n_ingress=1, n_caches=N_CACHES,
                                    n_egress=2)
        _run("timing", world, hosted)
        assert world.fault_exposure_snapshot().get("latency-spike", 0) > 0


class TestDecideRuleSemantics:
    """``FaultInjector.decide`` is where a rule's scope, window and TCP
    exemption are defined; these pin each test without an RNG draw."""

    PLATFORM_IP = "10.1.2.3"
    CLIENT_IP = "172.16.0.9"

    def _injector(self, *rules):
        clock = SimClock()
        return FaultInjector(FaultPlan("semantics", rules), clock,
                             random.Random(0)), clock

    def test_window_is_half_open(self):
        injector, clock = self._injector(FaultRule(
            FaultKind.SERVFAIL, window=TimeWindow(40.0, 60.0)))
        for now, fires in ((0.0, False), (39.999, False), (40.0, True),
                           (59.999, True), (60.0, False), (75.0, False)):
            clock.advance_to(now)
            decision = injector.decide(self.CLIENT_IP, self.PLATFORM_IP)
            assert (decision is not None) is fires, now

    def test_truncate_never_applies_over_tcp(self):
        injector, _ = self._injector(
            FaultRule(FaultKind.TRUNCATE),
            FaultRule(FaultKind.REFUSED))
        assert injector.decide(self.CLIENT_IP, self.PLATFORM_IP).kind \
            is FaultKind.TRUNCATE
        tcp = injector.decide(self.CLIENT_IP, self.PLATFORM_IP, via_tcp=True)
        assert tcp.kind is FaultKind.REFUSED and tcp.rule_index == 1

    def test_scopes_pick_the_first_rule_that_admits_both_ends(self):
        injector, _ = self._injector(
            FaultRule(FaultKind.DROP_REQUEST, dst_prefix="203.0.113.0/24"),
            FaultRule(FaultKind.DROP_RESPONSE, dst_prefix=PLATFORM_PREFIX,
                      src_prefix="192.0.2.0/24"),
            FaultRule(FaultKind.SERVFAIL, dst_prefix=PLATFORM_PREFIX))
        assert injector.decide("192.0.2.7", self.PLATFORM_IP).rule_index == 1
        assert injector.decide(self.CLIENT_IP,
                               self.PLATFORM_IP).rule_index == 2
        assert injector.decide(self.CLIENT_IP, "203.0.113.5").rule_index == 0
        assert injector.decide(self.CLIENT_IP, "198.51.100.1") is None
        assert set(injector._dst_rules) == {self.PLATFORM_IP, "203.0.113.5",
                                            "198.51.100.1"}


class TestGaveUpIsNeverSilent:
    def test_total_loss_probe_reports_gave_up(self):
        world = _world_with_fault(FaultKind.DROP_REQUEST)
        # Make the drop total: every attempt dies, the policy must give up.
        plan = FaultPlan(name="blackhole", rules=(
            FaultRule(kind=FaultKind.DROP_REQUEST, probability=1.0,
                      dst_prefix=PLATFORM_PREFIX),))
        world.injector = FaultInjector(plan, world.clock,
                                       world.rng_factory.stream("faults"))
        world.network.install_faults(world.injector)
        hosted = world.add_platform(n_ingress=1, n_caches=2, n_egress=1)
        result = world.prober.probe(hosted.platform.ingress_ips[0],
                                    world.cde.unique_name("bh"))
        assert not result.delivered
        assert result.gave_up
        assert result.attempts == world.retry.max_attempts
        assert world.tally.gave_up > 0

    def test_degraded_rows_flagged_and_never_overcount(self):
        world = build_world(seed=SEED, lossy_platforms=False,
                            fault_profile="loss-heavy",
                            retry_profile="paper")
        specs = generate_population("open-resolvers", 4, seed=SEED,
                                    max_ingress=4, max_caches=4, max_egress=4)
        budget = MeasurementBudget(confidence=0.9,
                                   max_enumeration_queries=96,
                                   egress_probe_factor=2.0,
                                   min_egress_probes=8, max_egress_probes=32)
        rows = measure_population(world, specs, budget)
        assert rows
        for row in rows:
            assert row.measured_caches <= row.true_caches
            if row.gave_up:
                assert row.degraded
        # A 25% loss world with an active policy is visibly degraded.
        assert any(row.degraded for row in rows)
