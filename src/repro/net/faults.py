"""Deterministic fault injection for the simulated Internet.

The paper's Internet study (§V) ran against lossy, rate-limited and plainly
misbehaving resolvers: per-country packet loss, middleboxes answering
SERVFAIL or REFUSED on behalf of the real platform, silent drops and
congestion bursts.  This module lets any experiment reproduce that hostile
weather *deterministically*: a :class:`FaultPlan` is a pure-data description
of what can go wrong (per endpoint scope, per virtual-time window), and a
:class:`FaultInjector` applies it inside :class:`~repro.net.network.Network`
using one dedicated seeded RNG stream.

Determinism contract (the same one the parallel engine relies on):

* every probabilistic decision draws from a single named stream
  (``rng_factory.stream("faults")``), never from the network's latency/loss
  stream — attaching an injector does not perturb any other draw;
* rate limiting is driven purely by the virtual clock (no RNG at all);
* a world built from a :class:`~repro.study.internet.WorldConfig` carries
  only the fault *profile name*, so shard workers rebuild identical plans
  from their shard seed and rows stay byte-identical for any worker count.

Fault taxonomy (see docs/RESILIENCE.md):

=================  ==========================================================
kind               observable effect on one query attempt
=================  ==========================================================
``DROP_REQUEST``   the request vanishes; the responder never saw it
``DROP_RESPONSE``  the responder did all its work (caches populated!) but
                   the answer vanishes
``SERVFAIL``       an on-path middlebox answers SERVFAIL; the real endpoint
                   never sees the query
``REFUSED``        as above with REFUSED (policy middlebox / RRL)
``TRUNCATE``       the UDP response is truncated (TC=1, answers stripped),
                   forcing the caller's TCP retry
``LATENCY_SPIKE``  the request path stalls for ``extra_latency`` seconds
``RATE_LIMIT``     requests beyond ``burst`` per ``burst_window`` seconds to
                   one destination are dropped (token-window, clock-driven)
=================  ==========================================================
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .address import Prefix
from .clock import SimClock
from .loss import PAPER_LOSS_RATES


class FaultKind(Enum):
    """What a fault rule does to a matched query attempt."""

    DROP_REQUEST = "drop-request"
    DROP_RESPONSE = "drop-response"
    SERVFAIL = "servfail"
    REFUSED = "refused"
    TRUNCATE = "truncate"
    LATENCY_SPIKE = "latency-spike"
    RATE_LIMIT = "rate-limit"


#: Address scopes of the simulated Internet (fixed allocator layout —
#: see :class:`~repro.study.internet.SimulatedInternet`).
PLATFORM_PREFIX = "10.0.0.0/8"          # resolution platforms (ingress+egress)
INFRASTRUCTURE_PREFIX = "203.0.113.0/24"  # CDE nameservers
CLIENT_PREFIX = "172.16.0.0/12"         # browsers, SMTP hosts


@dataclass(frozen=True)
class TimeWindow:
    """A half-open virtual-time interval ``[start, end)``."""

    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad time window [{self.start}, {self.end})")


ALWAYS = TimeWindow()


@dataclass(frozen=True)
class FaultRule:
    """One composable fault: kind + scope + window + intensity.

    Scopes are IPv4 prefixes in ``a.b.c.d/len`` text form; ``None`` matches
    anything.  ``probability`` is evaluated per query attempt with the
    injector's dedicated RNG stream (``RATE_LIMIT`` ignores it and fires
    purely from the clock-driven request window).
    """

    kind: FaultKind
    probability: float = 1.0
    dst_prefix: Optional[str] = None
    src_prefix: Optional[str] = None
    window: TimeWindow = ALWAYS
    #: ``LATENCY_SPIKE`` only: seconds added to the request path.
    extra_latency: float = 0.25
    #: ``RATE_LIMIT`` only: requests allowed per destination per window.
    burst: int = 0
    burst_window: float = 1.0
    #: ``dst_prefix``/``src_prefix`` parsed, set by ``__post_init__``.
    _dst: Optional[Prefix] = field(default=None, init=False, repr=False,
                                   compare=False)
    _src: Optional[Prefix] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0,1]: {self.probability}")
        if self.extra_latency < 0:
            raise ValueError("extra_latency must be non-negative")
        if self.kind is FaultKind.RATE_LIMIT and self.burst < 1:
            raise ValueError("RATE_LIMIT rules need burst >= 1")
        if self.burst_window <= 0:
            raise ValueError("burst_window must be positive")
        # Parse scope prefixes once; Prefix is hashable and frozen.
        object.__setattr__(self, "_dst", self._parse(self.dst_prefix))
        object.__setattr__(self, "_src", self._parse(self.src_prefix))

    @staticmethod
    def _parse(text: Optional[str]) -> Optional[Prefix]:
        return None if text is None else Prefix.from_text(text)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault rules; the first rule that fires wins."""

    name: str
    rules: tuple[FaultRule, ...] = ()

    @property
    def is_noop(self) -> bool:
        return not self.rules

    def scoped(self, dst_prefix: Optional[str]) -> "FaultPlan":
        """A copy of this plan with every rule re-scoped to ``dst_prefix``."""
        return FaultPlan(
            name=self.name,
            rules=tuple(replace(rule, dst_prefix=dst_prefix)
                        for rule in self.rules),
        )


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one query attempt."""

    kind: FaultKind
    rule_index: int
    extra_latency: float = 0.0


@dataclass
class FaultExposure:
    """Counters of applied faults, keyed by kind value (sorted on export)."""

    by_kind: dict[str, int] = field(default_factory=dict)

    def record(self, kind: FaultKind) -> None:
        self.by_kind[kind.value] = self.by_kind.get(kind.value, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())

    def snapshot(self) -> dict[str, int]:
        return dict(self.by_kind)

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Exposure accumulated since ``before``, zero entries dropped."""
        out = {}
        for kind_value in sorted(self.by_kind):
            diff = self.by_kind[kind_value] - before.get(kind_value, 0)
            if diff:
                out[kind_value] = diff
        return out


class FaultInjector:
    """Applies a :class:`FaultPlan` deterministically inside the network.

    ``rng`` must be a dedicated stream (by convention
    ``rng_factory.stream("faults")``): probabilistic rules consume draws in
    attempt order, so two runs with the same seed and plan make identical
    decisions.  Rate-limit bookkeeping is keyed by (rule, destination) and
    driven solely by the virtual clock.

    A rule's destination scope is static, so :meth:`decide` tests it once
    per address and keeps the verdict until :meth:`forget` drops it; the
    network forgets every address it unregisters, so the memo holds only
    the live part of the world.
    """

    def __init__(self, plan: FaultPlan, clock: SimClock,
                 rng: random.Random):
        self.plan = plan
        self.clock = clock
        self.rng = rng
        self.exposure = FaultExposure()
        self._request_times: dict[tuple[int, str], deque[float]] = {}
        #: destination address -> the ``(index, rule)`` pairs whose
        #: ``dst_prefix`` admits it, in plan order.
        self._dst_rules: dict[str, tuple[tuple[int, FaultRule], ...]] = {}

    def decide(self, src_ip: str, dst_ip: str,
               via_tcp: bool = False) -> Optional[FaultDecision]:
        """The fault (if any) afflicting one query attempt, first match wins.

        A rule applies when its destination scope admits ``dst_ip``, its
        window ``[start, end)`` holds the current time, its source scope
        (if any) admits ``src_ip``, and it is not a ``TRUNCATE`` rule on a
        TCP attempt (TCP answers are never truncated).
        """
        candidates = self._dst_rules.get(dst_ip)
        if candidates is None:
            candidates = self._dst_rules[dst_ip] = tuple(
                (index, rule) for index, rule in enumerate(self.plan.rules)
                if rule._dst is None or rule._dst.contains(dst_ip))
        now = self.clock.now
        for index, rule in candidates:
            if via_tcp and rule.kind is FaultKind.TRUNCATE:
                continue
            window = rule.window
            if not window.start <= now < window.end:
                continue
            src = rule._src
            if src is not None and not src.contains(src_ip):
                continue
            if rule.kind is FaultKind.RATE_LIMIT:
                if not self._over_limit(index, rule, dst_ip, now):
                    continue
            elif rule.probability < 1.0 and \
                    self.rng.random() >= rule.probability:
                continue
            self.exposure.record(rule.kind)
            extra = (rule.extra_latency
                     if rule.kind is FaultKind.LATENCY_SPIKE else 0.0)
            return FaultDecision(kind=rule.kind, rule_index=index,
                                 extra_latency=extra)
        return None

    def forget(self, ip: str) -> None:
        """Drop everything kept about ``ip`` (it left the network)."""
        self._dst_rules.pop(ip, None)
        for index in range(len(self.plan.rules)):
            self._request_times.pop((index, ip), None)

    def _over_limit(self, index: int, rule: FaultRule, dst_ip: str,
                    now: float) -> bool:
        """Sliding-window request counting; purely clock-driven."""
        key = (index, dst_ip)
        times = self._request_times.get(key)
        if times is None:
            times = self._request_times[key] = deque()
        horizon = now - rule.burst_window
        while times and times[0] <= horizon:
            times.popleft()
        times.append(now)
        return len(times) > rule.burst


# ---------------------------------------------------------------------------
# named profiles (the CLI / WorldConfig surface)
# ---------------------------------------------------------------------------


def loss_profile(rate: float, name: str,
                 dst_prefix: str = PLATFORM_PREFIX) -> FaultPlan:
    """Symmetric injected loss at ``rate``: half request, half response drops.

    Modelled *on top of* any link-level loss the world already applies, so
    benches can sweep injected rates with ``lossy_platforms=False`` for a
    clean accuracy-vs-loss curve.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"loss rate must be in [0,1): {rate}")
    half = rate / 2.0
    return FaultPlan(name=name, rules=(
        FaultRule(FaultKind.DROP_REQUEST, probability=half,
                  dst_prefix=dst_prefix),
        FaultRule(FaultKind.DROP_RESPONSE, probability=half,
                  dst_prefix=dst_prefix),
    ))


def servfail_profile(rate: float, name: str = "servfail-middlebox",
                     refused_rate: float = 0.0) -> FaultPlan:
    """An on-path middlebox answering SERVFAIL (and optionally REFUSED)."""
    rules = [FaultRule(FaultKind.SERVFAIL, probability=rate,
                       dst_prefix=PLATFORM_PREFIX)]
    if refused_rate > 0:
        rules.append(FaultRule(FaultKind.REFUSED, probability=refused_rate,
                               dst_prefix=PLATFORM_PREFIX))
    return FaultPlan(name=name, rules=tuple(rules))


def _hostile_mix() -> FaultPlan:
    """A bit of everything, including a mid-run outage burst window."""
    return FaultPlan(name="hostile-mix", rules=(
        # Total platform outage for a 20-virtual-second window.
        FaultRule(FaultKind.DROP_REQUEST, probability=1.0,
                  dst_prefix=PLATFORM_PREFIX,
                  window=TimeWindow(40.0, 60.0)),
        FaultRule(FaultKind.SERVFAIL, probability=0.04,
                  dst_prefix=PLATFORM_PREFIX),
        FaultRule(FaultKind.REFUSED, probability=0.02,
                  dst_prefix=PLATFORM_PREFIX),
        FaultRule(FaultKind.TRUNCATE, probability=0.10,
                  dst_prefix=PLATFORM_PREFIX),
        FaultRule(FaultKind.LATENCY_SPIKE, probability=0.05,
                  extra_latency=0.4, dst_prefix=PLATFORM_PREFIX),
        FaultRule(FaultKind.DROP_REQUEST, probability=0.03,
                  dst_prefix=PLATFORM_PREFIX),
        FaultRule(FaultKind.DROP_RESPONSE, probability=0.03,
                  dst_prefix=PLATFORM_PREFIX),
    ))


#: Registry of named fault profiles; ``WorldConfig.fault_profile`` and the
#: CLI's ``--fault-profile`` accept exactly these names.
FAULT_PROFILES: dict[str, FaultPlan] = {
    "none": FaultPlan(name="none"),
    # The paper's measured per-country loss rates (§V), injected.
    "loss-default": loss_profile(PAPER_LOSS_RATES["default"], "loss-default"),
    "loss-cn": loss_profile(PAPER_LOSS_RATES["CN"], "loss-cn"),
    "loss-ir": loss_profile(PAPER_LOSS_RATES["IR"], "loss-ir"),
    "loss-heavy": loss_profile(0.25, "loss-heavy"),
    "servfail-middlebox": servfail_profile(0.05, refused_rate=0.02),
    "truncating-middlebox": FaultPlan("truncating-middlebox", rules=(
        FaultRule(FaultKind.TRUNCATE, probability=0.3,
                  dst_prefix=PLATFORM_PREFIX),
    )),
    "latency-spikes": FaultPlan("latency-spikes", rules=(
        FaultRule(FaultKind.LATENCY_SPIKE, probability=0.1,
                  extra_latency=0.5, dst_prefix=PLATFORM_PREFIX),
    )),
    "rate-limited": FaultPlan("rate-limited", rules=(
        FaultRule(FaultKind.RATE_LIMIT, burst=20, burst_window=1.0,
                  dst_prefix=PLATFORM_PREFIX),
    )),
    # The platform's *egress* path to our nameservers is flaky — queries
    # reach the platform fine but its upstream fetches get lost
    # (cf. transparent-forwarder middleboxes between resolver and server).
    "flaky-egress": FaultPlan("flaky-egress", rules=(
        FaultRule(FaultKind.DROP_REQUEST, probability=0.08,
                  dst_prefix=INFRASTRUCTURE_PREFIX),
    )),
    "hostile-mix": _hostile_mix(),
}


def fault_plan(profile: str) -> FaultPlan:
    """Resolve a profile name, with a helpful error for typos."""
    try:
        return FAULT_PROFILES[profile]
    except KeyError:
        known = ", ".join(sorted(FAULT_PROFILES))
        raise KeyError(
            f"unknown fault profile {profile!r}; known profiles: {known}"
        ) from None
