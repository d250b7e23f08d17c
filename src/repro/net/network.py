"""The message-routing network.

:class:`Network` connects endpoints (probers, resolution platforms,
authoritative nameservers, SMTP servers...) by IP address and routes DNS
messages between them synchronously, while:

* advancing the shared :class:`~repro.net.clock.SimClock` by sampled link
  latencies, so response times measured by callers are meaningful (the
  timing side channel of paper §IV-B3 depends on this);
* dropping messages according to per-endpoint loss models, with the caller
  waiting out its retransmission timeout (carpet bombing, paper §V);
* keeping global counters used by the benches.

The model is intentionally synchronous: a handler may itself issue nested
:meth:`Network.query` calls (a resolution platform querying an authoritative
server), and all time spent upstream is reflected in the caller's measured
round-trip time — exactly the property the paper's latency classifier
exploits.

Loss semantics matter for fidelity: a lost *request* means the responder
never saw it, but a lost *response* means the responder did all its work
(including populating caches) and only the answer vanished.  Both cases are
modelled distinctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from typing import Optional, Protocol

from ..dns.errors import NetworkUnreachable, QueryTimeout
from ..dns.message import DnsMessage
from ..dns.rrtype import RCode
from .clock import SimClock
from .faults import FaultDecision, FaultInjector, FaultKind
from .latency import ConstantLatency, LatencyModel, LogNormalLatency, wan_path
from .loss import BernoulliLoss, LossModel, NoLoss
from .rng import RngFactory


class Endpoint(Protocol):
    """Anything addressable on the network."""

    def handle_message(self, message: DnsMessage, src_ip: str,
                       network: "Network") -> Optional[DnsMessage]:
        """Process a message, optionally returning a response.

        Returning ``None`` models a silent drop (e.g. a firewalled host).
        """


class SinkEndpoint:
    """An addressable host that never answers DNS (clients, probers)."""

    def handle_message(self, message: DnsMessage, src_ip: str,
                       network: "Network") -> Optional[DnsMessage]:
        return None


@dataclass(frozen=True)
class LinkProfile:
    """The path characteristics between an endpoint and 'the Internet'."""

    latency: LatencyModel
    loss: LossModel

    @classmethod
    def default(cls) -> "LinkProfile":
        return cls(latency=wan_path(), loss=NoLoss())


@dataclass
class NetworkStats:
    messages_sent: int = 0
    messages_delivered: int = 0
    requests_lost: int = 0
    responses_lost: int = 0
    timeouts: int = 0
    retransmissions: int = 0
    faults_injected: int = 0

    def reset(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.requests_lost = 0
        self.responses_lost = 0
        self.timeouts = 0
        self.retransmissions = 0
        self.faults_injected = 0


@dataclass
class Transaction:
    """Outcome of one (possibly retransmitted) query exchange."""

    response: DnsMessage
    rtt: float
    attempts: int
    src_ip: str
    dst_ip: str


#: One link's sampling parameters, flattened: (lognormal?, median or
#: constant delay, sigma, loss rate).
LinkParams = tuple[bool, float, float, float]


def compile_link(profile: LinkProfile) -> Optional[LinkParams]:
    """The flattened parameters of ``profile``, when its models allow.

    Constant or lognormal latency with no loss or Bernoulli loss — the
    links of every world the population builds — compile to plain
    numbers that a traversal samples without calling the models.  Any
    other model (uniform or composite latency, the stateful burst loss)
    returns ``None`` and keeps calling its own methods.

    The compiled draw is written out where it is sampled, to save a call
    per traversal end, so a change to either model's sampling must be
    made in every copy: :meth:`LogNormalLatency.sample`,
    :meth:`BernoulliLoss.is_lost`, both ends of :meth:`Network._traverse`
    and the fused corridor's ``_leg`` in ``repro.study.engine``.
    """
    latency = profile.latency
    if type(latency) is LogNormalLatency:
        lognormal, median, sigma = True, latency.median, latency.sigma
    elif type(latency) is ConstantLatency:
        lognormal, median, sigma = False, latency.delay, 0.0
    else:
        return None
    loss = profile.loss
    if type(loss) is NoLoss:
        rate = 0.0
    elif type(loss) is BernoulliLoss:
        rate = loss.rate
    else:
        return None
    return (lognormal, median, sigma, rate)


class _Registration:
    """An endpoint, its link profile and the profile compiled once."""

    __slots__ = ("endpoint", "profile", "link")

    def __init__(self, endpoint: Endpoint, profile: LinkProfile):
        self.endpoint = endpoint
        self.profile = profile
        self.link = compile_link(profile)


class Network:
    """Registry and router for simulated endpoints."""

    #: Default retransmission timeout, matching common stub defaults.
    DEFAULT_TIMEOUT = 2.0
    DEFAULT_RETRIES = 2  # total attempts = retries + 1

    def __init__(self, clock: Optional[SimClock] = None,
                 rng_factory: Optional[RngFactory] = None,
                 wire_fidelity: bool = False):
        self.clock = clock or SimClock()
        self.rng_factory = rng_factory or RngFactory(0)
        self._rng = self.rng_factory.stream("network")
        self._endpoints: dict[str, _Registration] = {}
        self.stats = NetworkStats()
        #: Optional deterministic fault injector (see :mod:`repro.net.faults`).
        #: ``None`` — the default — leaves every code path byte-identical to
        #: a fault-free network: no extra RNG draws, no extra branches taken.
        self.injector: Optional[FaultInjector] = None
        #: When True, every routed message is encoded to RFC 1035 wire
        #: format and decoded back before delivery — endpoints only ever see
        #: what genuinely survives the wire.  Costs CPU; great for testing.
        self.wire_fidelity = wire_fidelity

    def _through_wire(self, message: DnsMessage) -> DnsMessage:
        """``message`` encoded to wire format and decoded back."""
        from ..dns.wire import decode_message, encode_message

        decoded = decode_message(encode_message(message))
        # Transport is connection metadata, not message content.
        decoded.via_tcp = message.via_tcp
        return decoded

    @staticmethod
    def _truncate(response: DnsMessage) -> DnsMessage:
        """A TC=1 copy with every section stripped (UDP truncation)."""
        from dataclasses import replace as _replace

        return _replace(response, truncated=True,
                        answers=[], authority=[], additional=[])

    def install_faults(self, injector: Optional[FaultInjector]) -> None:
        """Attach (or, with ``None``, detach) a fault injector."""
        self.injector = injector

    # -- registry ---------------------------------------------------------

    def register(self, ip: str, endpoint: Endpoint,
                 profile: Optional[LinkProfile] = None) -> None:
        self._endpoints[ip] = _Registration(endpoint, profile or LinkProfile.default())

    def register_many(self, ips: list[str], endpoint: Endpoint,
                      profile: Optional[LinkProfile] = None) -> None:
        """Register several addresses of one endpoint.

        The addresses share one (read-only) registration record — platform
        construction registers tens of thousands of egress addresses, so
        per-address records are measurable dead weight.
        """
        if not ips:
            return
        registration = _Registration(endpoint,
                                     profile or LinkProfile.default())
        endpoints = self._endpoints
        for ip in ips:
            endpoints[ip] = registration

    def unregister(self, ip: str) -> None:
        self._endpoints.pop(ip, None)
        if self.injector is not None:
            self.injector.forget(ip)

    def endpoint_at(self, ip: str) -> Optional[Endpoint]:
        registration = self._endpoints.get(ip)
        return registration.endpoint if registration else None

    def is_registered(self, ip: str) -> bool:
        return ip in self._endpoints

    def profile_of(self, ip: str) -> Optional[LinkProfile]:
        registration = self._endpoints.get(ip)
        return registration.profile if registration else None

    def link_of(self, ip: str) -> Optional[LinkParams]:
        """The compiled link of ``ip`` (see :func:`compile_link`); ``None``
        when ``ip`` is unregistered or its models do not compile."""
        registration = self._endpoints.get(ip)
        return registration.link if registration else None

    # -- traversal helpers ---------------------------------------------------

    def _traverse(self, src: Optional[_Registration],
                  dst: _Registration) -> tuple[bool, float]:
        """One message traversal: (lost?, latency).

        Destination latency, destination loss, source latency, then the
        source loss only when the message was not already lost.  A
        compiled link draws inline; any other calls its models.
        """
        rng = self._rng
        link = dst.link
        if link is None:
            latency = dst.profile.latency.sample(rng)
            lost = dst.profile.loss.is_lost(rng)
        else:
            lognormal, median, sigma, rate = link
            latency = median * exp(rng.gauss(0.0, sigma)) if lognormal \
                else median
            lost = rate > 0.0 and rng.random() < rate
        if src is not None:
            link = src.link
            if link is None:
                latency += src.profile.latency.sample(rng)
                lost = lost or src.profile.loss.is_lost(rng)
            else:
                lognormal, median, sigma, rate = link
                latency += median * exp(rng.gauss(0.0, sigma)) if lognormal \
                    else median
                if not lost:
                    lost = rate > 0.0 and rng.random() < rate
        return lost, latency

    # -- the transaction primitive ---------------------------------------------

    def query(self, src_ip: str, dst_ip: str, message: DnsMessage,
              timeout: float = DEFAULT_TIMEOUT,
              retries: int = DEFAULT_RETRIES) -> Transaction:
        """Send ``message`` from ``src_ip`` to ``dst_ip`` and await a reply.

        Retransmits up to ``retries`` times after waiting ``timeout`` virtual
        seconds per lost exchange.  Raises :class:`QueryTimeout` when every
        attempt fails and :class:`NetworkUnreachable` when ``dst_ip`` is not
        registered.
        """
        endpoints = self._endpoints
        registration = endpoints.get(dst_ip)
        if registration is None:
            raise NetworkUnreachable(f"no endpoint at {dst_ip}")
        source = endpoints.get(src_ip)
        clock = self.clock
        stats = self.stats
        injector = self.injector
        via_tcp = message.via_tcp

        start = clock.now
        if via_tcp:
            # TCP costs one extra round trip (SYN/SYN-ACK) before the query.
            lost, handshake_out = self._traverse(source, registration)
            lost2, handshake_back = self._traverse(source, registration)
            clock.advance(handshake_out + handshake_back)
            if lost or lost2:
                # A failed handshake surfaces as a (retried) connect delay.
                clock.advance(timeout / 2)
        attempts = 0
        while attempts <= retries:
            attempts += 1
            if attempts > 1:
                stats.retransmissions += 1
            sent_at = clock.now
            stats.messages_sent += 1

            # Fault decisions are drawn once per attempt, before any
            # latency/loss sampling, from the injector's dedicated stream —
            # so attaching an injector never perturbs the network's own RNG.
            fault: Optional[FaultDecision] = None
            if injector is not None:
                fault = injector.decide(src_ip, dst_ip, via_tcp=via_tcp)
                if fault is not None:
                    stats.faults_injected += 1
                    kind = fault.kind
                    if kind is FaultKind.DROP_REQUEST or \
                            kind is FaultKind.RATE_LIMIT:
                        # The request vanishes; the responder never saw it.
                        stats.requests_lost += 1
                        clock.advance_to(sent_at + timeout)
                        continue
                    if kind is FaultKind.LATENCY_SPIKE:
                        clock.advance(fault.extra_latency)

            lost, request_latency = self._traverse(source, registration)
            if lost:
                stats.requests_lost += 1
                clock.advance_to(sent_at + timeout)
                continue
            # SimClock.advance, inline: both traversals of every attempt
            # move the clock.
            if request_latency < 0:
                raise ValueError(f"cannot advance time by {request_latency}")
            clock.now += request_latency

            if fault is not None and fault.kind in (
                    FaultKind.SERVFAIL, FaultKind.REFUSED):
                # An on-path middlebox answers in the endpoint's stead; the
                # real platform never sees the query (no caches populated).
                rcode = (RCode.SERVFAIL if fault.kind is FaultKind.SERVFAIL
                         else RCode.REFUSED)
                response: Optional[DnsMessage] = message.make_response(rcode)
            elif self.wire_fidelity:
                response = registration.endpoint.handle_message(
                    self._through_wire(message), src_ip, self)
            else:
                response = registration.endpoint.handle_message(
                    message, src_ip, self)
            if response is None:
                # Silent drop by the endpoint itself.
                clock.advance_to(max(clock.now, sent_at + timeout))
                continue

            if fault is not None:
                if fault.kind is FaultKind.TRUNCATE:
                    # The endpoint did its work (caches populated) but the
                    # UDP answer is truncated: TC=1, sections stripped,
                    # forcing the caller's TCP retry.  Rules never match
                    # via_tcp attempts.
                    response = self._truncate(response)
                elif fault.kind is FaultKind.DROP_RESPONSE:
                    # The responder did all its work; only the answer
                    # vanished.
                    stats.responses_lost += 1
                    clock.advance_to(max(clock.now, sent_at + timeout))
                    continue

            lost, response_latency = self._traverse(source, registration)
            if lost:
                stats.responses_lost += 1
                clock.advance_to(max(clock.now, sent_at + timeout))
                continue
            if response_latency < 0:
                raise ValueError(f"cannot advance time by {response_latency}")
            clock.now += response_latency
            stats.messages_delivered += 1
            if self.wire_fidelity:
                response = self._through_wire(response)
            return Transaction(
                response=response,
                rtt=clock.now - start,
                attempts=attempts,
                src_ip=src_ip,
                dst_ip=dst_ip,
            )

        stats.timeouts += 1
        raise QueryTimeout(
            f"query from {src_ip} to {dst_ip} lost after {attempts} attempts"
        )

    def send_oneway(self, src_ip: str, dst_ip: str, message: DnsMessage) -> bool:
        """Fire-and-forget delivery (no response expected).

        Returns whether the message arrived.
        """
        registration = self._endpoints.get(dst_ip)
        if registration is None:
            raise NetworkUnreachable(f"no endpoint at {dst_ip}")
        self.stats.messages_sent += 1
        lost, latency = self._traverse(self._endpoints.get(src_ip),
                                       registration)
        if lost:
            self.stats.requests_lost += 1
            return False
        self.clock.advance(latency)
        registration.endpoint.handle_message(message, src_ip, self)
        self.stats.messages_delivered += 1
        return True
