"""Cache enumeration (paper §IV-B1a and §V-B).

The observable: every *distinct cache* that is probed with a miss produces
exactly one query at the CDE nameserver; repeat probes of an already-seeded
cache are absorbed.  "The number of queries ω ≤ q arriving at our nameserver
is the number of caches used by the resolution platform."

Three enumerators are provided:

* :func:`enumerate_direct` — the plain technique: q queries for one fresh
  name, ω arrivals counted.  Exact when q covers all caches (coupon
  collector, Theorem 5.1); the result carries an occupancy-corrected
  estimate for when it might not.
* :func:`enumerate_two_phase` — the init/validate protocol the paper used
  for its Internet measurements: N distinct seeds planted in the init
  phase, re-requested in the validate phase; validate arrivals yield both a
  statistical cache-count estimate and the per-seed success count the paper
  analyses as ``N·(1 − e^{−N/n})²``.
* :func:`enumerate_adaptive` — a planner loop that grows q geometrically
  until the arrival count stabilises, for targets with unknown n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..dns.name import DnsName
from ..dns.rrtype import RRType
from .analysis import (
    CacheCountEstimate,
    estimate_from_occupancy,
    estimate_from_two_phase,
    queries_for_confidence,
)
from .infrastructure import CdeInfrastructure
from .prober import DirectProber, delivery_probe
from .resilient import RetryBudget


@dataclass
class DirectEnumerationResult:
    """Outcome of the q-identical-queries technique."""

    probe_name: DnsName
    queries_sent: int
    delivered: int
    arrivals: int                       # ω: queries seen at our nameserver
    estimate: CacheCountEstimate

    @property
    def cache_count(self) -> int:
        return self.estimate.rounded


@dataclass
class TwoPhaseEnumerationResult:
    """Outcome of the init/validate protocol."""

    seeds: int
    init_arrivals: int
    validate_arrivals: int
    validated_seeds: int                # seeds answered from cache
    estimate: CacheCountEstimate
    seed_names: list[DnsName] = field(default_factory=list)

    @property
    def cache_count(self) -> int:
        return self.estimate.rounded


def enumerate_direct(cde: CdeInfrastructure, prober: DirectProber,
                     ingress_ip: str, q: int,
                     qtype: RRType = RRType.A,
                     probe_name: Optional[DnsName] = None,
                     pace: float = 0.0) -> DirectEnumerationResult:
    """Send q identical queries; ω arrivals at the nameserver = caches.

    ``pace`` inserts an idle gap (seconds of virtual time) between probes.
    Platforms with a frontend deduplication window collapse rapid-fire
    identical questions into one cache probe; pacing beyond the window
    restores the census (see the pacing ablation bench).
    """
    if q < 1:
        raise ValueError("need at least one query")
    if pace < 0:
        raise ValueError("pace must be non-negative")
    name = probe_name or cde.unique_name("enum")
    since = prober.network.clock.now
    delivered = 0
    for index in range(q):
        if index and pace:
            prober.network.clock.advance(pace)
        if prober.probe(ingress_ip, name, qtype).delivered:
            delivered += 1
    arrivals = cde.count_queries_for(name, since=since, qtype=qtype)
    estimate = CacheCountEstimate(
        estimate=estimate_from_occupancy(q, arrivals) if arrivals else 0.0,
        lower_bound=arrivals,
        queries_sent=q,
        arrivals=arrivals,
    )
    return DirectEnumerationResult(
        probe_name=name, queries_sent=q, delivered=delivered,
        arrivals=arrivals, estimate=estimate,
    )


def enumerate_two_phase(cde: CdeInfrastructure, prober: DirectProber,
                        ingress_ip: str, seeds: int,
                        qtype: RRType = RRType.A
                        ) -> TwoPhaseEnumerationResult:
    """The paper's init/validate protocol (§V-B).

    Init: N fresh seed names pushed through the ingress IP in rapid
    succession, statistically seeding every cache.  Validate: the same
    names re-requested; a validate arrival at the nameserver reveals the
    probe hit a cache lacking the seed.  The hit fraction estimates 1/n.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    seed_names = cde.unique_names(seeds, prefix="seed")

    init_since = prober.network.clock.now
    for seed_name in seed_names:
        prober.probe(ingress_ip, seed_name, qtype)
    init_arrivals = sum(
        min(1, cde.count_queries_for(seed_name, since=init_since, qtype=qtype))
        for seed_name in seed_names
    )

    validate_since = prober.network.clock.now
    for seed_name in seed_names:
        prober.probe(ingress_ip, seed_name, qtype)
    validate_arrivals = sum(
        min(1, cde.count_queries_for(seed_name, since=validate_since, qtype=qtype))
        for seed_name in seed_names
    )
    validated = seeds - validate_arrivals

    estimate_value = estimate_from_two_phase(seeds, validate_arrivals)
    estimate = CacheCountEstimate(
        estimate=estimate_value,
        lower_bound=_distinct_seed_lower_bound(init_arrivals, validate_arrivals,
                                               seeds),
        queries_sent=2 * seeds,
        arrivals=init_arrivals + validate_arrivals,
    )
    return TwoPhaseEnumerationResult(
        seeds=seeds,
        init_arrivals=init_arrivals,
        validate_arrivals=validate_arrivals,
        validated_seeds=validated,
        estimate=estimate,
        seed_names=seed_names,
    )


def _distinct_seed_lower_bound(init_arrivals: int, validate_arrivals: int,
                               seeds: int) -> int:
    """At least one cache exists if anything arrived; a validate arrival
    for a seeded name proves at least two caches."""
    if init_arrivals == 0:
        return 0
    return 2 if validate_arrivals > 0 else 1


def enumerate_adaptive(cde: CdeInfrastructure, prober: DirectProber,
                       ingress_ip: str,
                       initial_q: int = 8,
                       confidence: float = 0.99,
                       max_q: int = 4096,
                       qtype: RRType = RRType.A,
                       retry_budget: Optional[RetryBudget] = None,
                       *,
                       probe: Optional[Callable[[DnsName, RRType], bool]]
                       = None) -> DirectEnumerationResult:
    """Direct enumeration without a prior on n.

    Starts with ``initial_q`` probes of one fresh name and keeps probing
    the *same* name until the total query count reaches the
    coupon-collector budget for the current arrival count (so the final q
    satisfies the §V-B bound for the measured n), or ``max_q`` is hit.

    When the prober runs an active retry policy, retries are charged to
    ``retry_budget``; with none supplied, one is derived from the same
    coupon-collector bound that drives the stopping rule (so retrying can
    spend at most ``budget_fraction`` of the planned query count).

    ``probe`` says how one probe reaches the platform and returns whether
    it was delivered; the default is one real ``prober.probe`` at
    ``ingress_ip``.
    """
    if initial_q < 1:
        raise ValueError("initial_q must be positive")
    deliver = probe or delivery_probe(prober, ingress_ip)
    name = cde.unique_name("enum")
    since = prober.network.clock.now
    sent = 0
    delivered = 0

    def send(count: int) -> None:
        nonlocal sent, delivered
        for _ in range(count):
            if deliver(name, qtype):
                delivered += 1
            sent += 1

    saved_budget = prober.retry_budget
    try:
        if prober.policy is not None and retry_budget is None:
            retry_budget = RetryBudget.for_confidence(
                2, confidence, prober.policy)
        prober.retry_budget = retry_budget

        send(initial_q)
        while sent < max_q:
            arrivals = cde.count_queries_for(name, since=since, qtype=qtype)
            # Budget against one MORE cache than observed: stopping is only
            # sound once enough probes have gone out that an (arrivals+1)-th
            # cache would almost surely have been hit.
            needed = queries_for_confidence(arrivals + 1, confidence)
            if sent >= needed:
                break
            if retry_budget is not None:
                # Grow the retry allowance with the measured plan.
                grown = RetryBudget.for_confidence(
                    arrivals + 1, confidence, prober.policy)
                if grown.total > retry_budget.total:
                    retry_budget.total = grown.total
            send(min(needed - sent, max_q - sent))
    finally:
        prober.retry_budget = saved_budget

    arrivals = cde.count_queries_for(name, since=since, qtype=qtype)
    estimate = CacheCountEstimate(
        estimate=estimate_from_occupancy(sent, arrivals) if arrivals else 0.0,
        lower_bound=arrivals,
        queries_sent=sent,
        arrivals=arrivals,
    )
    return DirectEnumerationResult(
        probe_name=name, queries_sent=sent, delivered=delivered,
        arrivals=arrivals, estimate=estimate,
    )
