"""Running the CDE across whole populations (paper §V-A).

Each function measures every platform in a generated population with the
access mode its dataset allows — direct probing for open resolvers, SMTP
bounce probing for enterprises, browser probing for ISP clients — and
returns per-platform :class:`PlatformMeasurement` rows.  Figures 3–8 are
computed from these rows.

Measured values come *only* from the CDE techniques (nameserver arrivals);
ground truth from the specs is carried along solely so benches and tests
can report measurement accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.analysis import queries_for_confidence
from ..core.bypass import CnameChainBypass
from ..core.enumeration import enumerate_adaptive
from ..core.mapping import discover_egress_ips
from ..core.prober import IndirectProber
from ..dns.name import DnsName
from ..dns.rrtype import RRType
from .internet import HostedPlatform, SimulatedInternet
from .population import PlatformSpec


@dataclass
class PlatformMeasurement:
    """One measured platform: the row behind every figure."""

    spec: PlatformSpec
    measured_caches: int
    measured_egress: int
    queries_used: int
    technique: str

    # Degradation bookkeeping (all zero/empty on a polite network with no
    # retry policy — the defaults keep seed-era rows byte-identical).
    attempts: int = 0        # probe-level attempts made by an active policy
    retries: int = 0         # attempts beyond each probe's first
    gave_up: int = 0         # probes abandoned with no answer
    fault_exposure: dict[str, int] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether this row was measured under visible adversity."""
        return bool(self.attempts or self.retries or self.gave_up
                    or self.fault_exposure)

    # Ground truth (for accuracy reporting only).
    @property
    def true_caches(self) -> int:
        return self.spec.n_caches

    @property
    def true_egress(self) -> int:
        return self.spec.n_egress

    @property
    def n_ingress(self) -> int:
        return self.spec.n_ingress

    @property
    def cache_error(self) -> int:
        return self.measured_caches - self.true_caches

    @property
    def ip_cache_pair(self) -> tuple[int, int]:
        """(ingress IPs, measured caches) — the Figures 5/7/8 coordinate."""
        return (self.spec.n_ingress, self.measured_caches)


@dataclass
class MeasurementBudget:
    """Caps that keep population sweeps fast without changing methodology."""

    confidence: float = 0.95
    max_enumeration_queries: int = 512
    egress_probe_factor: float = 3.0     # probes ≈ factor · measured egress
    min_egress_probes: int = 24
    max_egress_probes: int = 256


def _egress_probe_budget(spec: PlatformSpec, budget: MeasurementBudget) -> int:
    """Coupon-collector-style budget for the egress census.

    Scales with the *expected* egress pool size (the operator's prior in a
    real study; here the spec stands in for that prior).
    """
    want = int(budget.egress_probe_factor * max(spec.n_egress, 1))
    return max(budget.min_egress_probes, min(want, budget.max_egress_probes))


def measure_direct(world: SimulatedInternet, hosted: HostedPlatform,
                   budget: Optional[MeasurementBudget] = None,
                   *,
                   probe: Optional[Callable[[DnsName, RRType], bool]] = None
                   ) -> PlatformMeasurement:
    """Open-resolver access: the direct techniques (§IV-B1).

    ``probe`` is forwarded to both techniques: how one probe reaches the
    platform (default: one real ``world.prober.probe`` at the ingress).
    """
    budget = budget or MeasurementBudget()
    spec = hosted.spec
    before = world.prober.queries_sent
    tally_before = world.tally.snapshot()
    exposure_before = world.fault_exposure_snapshot()
    ingress_ip = hosted.platform.ingress_ips[0]
    enumeration = enumerate_adaptive(
        world.cde, world.prober, ingress_ip,
        initial_q=8, confidence=budget.confidence,
        max_q=budget.max_enumeration_queries, probe=probe,
    )
    egress = discover_egress_ips(
        world.cde, world.prober, ingress_ip,
        probes=_egress_probe_budget(spec, budget), probe=probe,
    )
    degradation = world.tally.delta(tally_before)
    return PlatformMeasurement(
        spec=spec,
        measured_caches=enumeration.cache_count,
        measured_egress=egress.n_egress,
        queries_used=world.prober.queries_sent - before,
        technique="direct",
        attempts=degradation.attempts,
        retries=degradation.retries,
        gave_up=degradation.gave_up,
        fault_exposure=world.fault_exposure_delta(exposure_before),
    )


def _measure_indirect(world: SimulatedInternet, hosted: HostedPlatform,
                      prober: IndirectProber, technique: str,
                      budget: MeasurementBudget,
                      count_qtype: Optional[RRType]) -> PlatformMeasurement:
    spec = hosted.spec
    tally_before = world.tally.snapshot()
    exposure_before = world.fault_exposure_snapshot()
    # Enumerate with a CNAME chain sized by the coupon bound for the prior.
    q = min(budget.max_enumeration_queries,
            queries_for_confidence(max(spec.n_caches, 2), budget.confidence))
    bypass = CnameChainBypass(world.cde)
    result = bypass.run(prober, q, count_qtype=count_qtype)

    # Egress census: fresh names through the same prober; distinct sources.
    # A probe name matches its whole subtree: the SMTP channel carries the
    # name into ``_dmarc.<name>``-style authentication lookups.
    probes = _egress_probe_budget(spec, budget)
    names = world.cde.unique_names(probes, prefix="egx")
    since = world.clock.now
    prober.trigger(names)
    sources = {
        entry.src_ip
        for entry in world.cde.server.query_log.entries_for_any(
            names, since=since, under=True)
    }
    degradation = world.tally.delta(tally_before)
    return PlatformMeasurement(
        spec=spec,
        measured_caches=result.cache_count,
        measured_egress=len(sources),
        queries_used=result.triggered + probes,
        technique=technique,
        attempts=degradation.attempts,
        retries=degradation.retries,
        gave_up=degradation.gave_up,
        fault_exposure=world.fault_exposure_delta(exposure_before),
    )


def measure_via_smtp(world: SimulatedInternet, hosted: HostedPlatform,
                     budget: Optional[MeasurementBudget] = None
                     ) -> PlatformMeasurement:
    """Enterprise access through the mail server's bounce handling."""
    budget = budget or MeasurementBudget()
    prober = world.make_smtp_prober(
        f"enterprise-{hosted.spec.index}.example", hosted)
    # Guarantee the probe carries at least one lookup type even if the drawn
    # policy is empty (a mail server that resolves nothing is unusable as a
    # prober; the paper's dataset only contains servers that do look up).
    if prober.lookups_per_probe == 0:
        from ..client.smtp import SmtpAuthPolicy

        prober.smtp_server.policy = SmtpAuthPolicy(checks_spf_txt=True,
                                                   resolves_bounce_mx=True)
    return _measure_indirect(world, hosted, prober, "smtp", budget,
                             count_qtype=None)


def measure_via_browser(world: SimulatedInternet, hosted: HostedPlatform,
                        budget: Optional[MeasurementBudget] = None
                        ) -> PlatformMeasurement:
    """ISP access through an ad-network web client."""
    budget = budget or MeasurementBudget()
    prober = world.make_browser_prober(hosted)
    return _measure_indirect(world, hosted, prober, "browser", budget,
                             count_qtype=RRType.A)


MEASURES: dict[str, Callable[..., PlatformMeasurement]] = {
    "open-resolvers": measure_direct,
    "email-servers": measure_via_smtp,
    "ad-network": measure_via_browser,
}


def measure_population(world: SimulatedInternet, specs: list[PlatformSpec],
                       budget: Optional[MeasurementBudget] = None
                       ) -> list[PlatformMeasurement]:
    """Build and measure every platform of a generated population."""
    rows = []
    for spec in specs:
        hosted = world.add_platform_from_spec(spec)
        measure = MEASURES[spec.population]
        rows.append(measure(world, hosted, budget))
    return rows
