"""Probers: how the CDE injects queries into a target platform.

Paper §IV: "We use a prober to initiate our study by triggering DNS queries
either directly via the ingress IP address of the DNS resolution platform,
or indirectly, via email server or web browser."

* :class:`DirectProber` — full control: it owns an IP, talks straight to an
  ingress address, controls timing and repetition, and sees response RTTs
  (which the timing side channel needs).
* :class:`SmtpProber` / :class:`BrowserProber` — indirect access through an
  application whose local caches sit in the path; a given hostname can be
  pushed through at most once, and the probe names must be chosen with a
  bypass technique (:mod:`repro.core.bypass`).

Both indirect probers implement the common :class:`IndirectProber`
protocol: ``trigger(names)`` pushes each name toward the platform once and
returns how many probes were actually emitted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from ..client.browser import Browser
from ..client.smtp import SmtpServer
from ..dns.errors import QueryTimeout
from ..dns.message import DnsMessage
from ..dns.name import DnsName
from ..dns.rrtype import RCode, RRType
from ..net.network import Network, Transaction
from ..net.rng import fallback_rng
from .resilient import (
    AttemptRecord,
    DegradationTally,
    ProbeFailure,
    RetryBudget,
    RetryPolicy,
)


@dataclass
class ProbeResult:
    """One direct probe's outcome."""

    qname: DnsName
    qtype: RRType
    delivered: bool
    rtt: Optional[float] = None
    transaction: Optional[Transaction] = None
    #: Probe-level attempts made by an active retry policy (1 otherwise).
    attempts: int = 1
    #: True when an active policy exhausted its attempts with no answer.
    gave_up: bool = False


class DirectProber:
    """A measurement host with direct access to ingress IPs.

    With no ``policy`` (or an inactive one) the prober behaves exactly like
    the seed toolkit: a single probe-level attempt whose retransmissions are
    the network layer's.  An *active* :class:`RetryPolicy` takes over
    retrying: each attempt runs with ``policy.per_attempt_timeout`` and
    ``policy.network_retries``, failed attempts back off on the virtual
    clock with seeded jitter from ``retry_rng``, and every retry is charged
    to ``retry_budget`` (when installed) so resilience can never blow the
    §V-B query plan.
    """

    def __init__(self, prober_ip: str, network: Network,
                 rng: Optional[random.Random] = None,
                 timeout: float = Network.DEFAULT_TIMEOUT,
                 retries: int = Network.DEFAULT_RETRIES,
                 policy: Optional[RetryPolicy] = None,
                 retry_rng: Optional[random.Random] = None,
                 tally: Optional[DegradationTally] = None):
        self.prober_ip = prober_ip
        self.network = network
        self.rng = rng or fallback_rng("core.DirectProber")
        self.timeout = timeout
        self.retries = retries
        self.queries_sent = 0
        self.policy = policy if policy is not None and policy.active else None
        self.retry_rng = retry_rng or fallback_rng("core.DirectProber.retry")
        self.tally = tally
        #: Installed by the measurement layer around an enumeration
        #: (:func:`~repro.core.enumeration.enumerate_adaptive`).
        self.retry_budget: Optional[RetryBudget] = None

    def query(self, ingress_ip: str, qname: DnsName,
              qtype: RRType = RRType.A,
              retries: Optional[int] = None) -> Transaction:
        """One query/response transaction; raises on total loss.

        Truncated (TC) responses are retried over TCP, like any real
        client.  Under an active retry policy, total loss raises
        :class:`ProbeFailure` carrying the attempt history; otherwise the
        network's plain :class:`QueryTimeout` propagates, as it always did.
        """
        if self.policy is not None:
            return self._query_resilient(ingress_ip, qname, qtype)
        self.queries_sent += 1
        message = DnsMessage.make_query(
            qname, qtype, msg_id=self.rng.randrange(1 << 16),
        )
        return self._exchange(ingress_ip, message,
                              timeout=self.timeout,
                              retries=self.retries if retries is None else retries)

    def _exchange(self, ingress_ip: str, message: DnsMessage,
                  timeout: float, retries: int) -> Transaction:
        """One wire exchange with the standard TC→TCP follow-up."""
        transaction = self.network.query(
            self.prober_ip, ingress_ip, message,
            timeout=timeout, retries=retries,
        )
        if transaction.response.truncated and not message.via_tcp:
            transaction = self.network.query(
                self.prober_ip, ingress_ip, message.over_tcp(),
                timeout=timeout, retries=retries,
            )
        return transaction

    def _query_resilient(self, ingress_ip: str, qname: DnsName,
                         qtype: RRType) -> Transaction:
        """Policy-owned retry loop: backoff, budget and attempt history."""
        policy = self.policy
        assert policy is not None
        message = DnsMessage.make_query(
            qname, qtype, msg_id=self.rng.randrange(1 << 16),
        )
        records: list[AttemptRecord] = []
        last_errored: Optional[Transaction] = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                if (self.retry_budget is not None
                        and not self.retry_budget.take()):
                    break
                delay = policy.delay_with_jitter(attempt - 1, self.retry_rng)
                if delay:
                    self.network.clock.advance(delay)
                if self.tally is not None:
                    self.tally.retries += 1
            if self.tally is not None:
                self.tally.attempts += 1
            self.queries_sent += 1
            started = self.network.clock.now
            try:
                transaction = self._exchange(
                    ingress_ip, message,
                    timeout=policy.per_attempt_timeout,
                    retries=policy.network_retries,
                )
            except QueryTimeout:
                records.append(AttemptRecord(attempt, started, "timeout"))
                continue
            rcode = transaction.response.rcode
            if (policy.retry_on_servfail
                    and rcode in (RCode.SERVFAIL, RCode.REFUSED)):
                records.append(AttemptRecord(
                    attempt, started, rcode.name.lower(),
                    rtt=transaction.rtt))
                last_errored = transaction
                continue
            return transaction
        if last_errored is not None:
            # Every attempt was answered, just with an error rcode — surface
            # the (possibly middlebox-forged) answer rather than pretending
            # the network stayed silent.
            return last_errored
        if self.tally is not None:
            self.tally.gave_up += 1
        raise ProbeFailure(
            f"probe of {ingress_ip} for {qname} gave up after "
            f"{len(records)} attempts",
            attempts=tuple(records),
        )

    def probe(self, ingress_ip: str, qname: DnsName,
              qtype: RRType = RRType.A,
              retries: Optional[int] = None) -> ProbeResult:
        """Like :meth:`query` but loss-tolerant: reports delivery status."""
        try:
            transaction = self.query(ingress_ip, qname, qtype, retries=retries)
        except ProbeFailure as failure:
            return ProbeResult(qname, qtype, delivered=False,
                               attempts=max(failure.attempt_count, 1),
                               gave_up=True)
        except QueryTimeout:
            return ProbeResult(qname, qtype, delivered=False)
        return ProbeResult(qname, qtype, delivered=True,
                           rtt=transaction.rtt, transaction=transaction)

    def probe_many(self, ingress_ip: str, qname: DnsName, count: int,
                   qtype: RRType = RRType.A,
                   retries: Optional[int] = None) -> list[ProbeResult]:
        """``count`` probes for the *same* name — the direct technique's
        core move (§IV-B1)."""
        return [self.probe(ingress_ip, qname, qtype, retries=retries)
                for _ in range(count)]


def delivery_probe(prober: DirectProber, ingress_ip: str
                   ) -> Callable[[DnsName, RRType], bool]:
    """One real :meth:`DirectProber.probe` at ``ingress_ip``, as a seam.

    The direct techniques read nothing of a probe but its delivery status,
    so this is the default way their probes reach a platform; a caller may
    pass another ``(qname, qtype) -> delivered`` callable in its place.
    """
    def probe(qname: DnsName, qtype: RRType) -> bool:
        return prober.probe(ingress_ip, qname, qtype).delivered
    return probe


class IndirectProber(Protocol):
    """Pushes probe names toward a platform through an application."""

    def trigger(self, names: list[DnsName]) -> int:
        """Cause one lookup per name; returns probes actually emitted."""


class SmtpProber:
    """Indirect prober riding an enterprise's bounce handling (§III-B).

    Each probe name becomes the *sender domain* of a message to a
    non-existent mailbox: every sender-authentication check and the DSN
    routing lookup the server performs then carries the probe name into the
    enterprise's resolution platform.
    """

    def __init__(self, smtp_server: SmtpServer,
                 sender_localpart: str = "prober",
                 rcpt_localpart: str = "no-such-mailbox"):
        self.smtp_server = smtp_server
        self.sender_localpart = sender_localpart
        self.rcpt_localpart = rcpt_localpart
        self.messages_sent = 0

    def trigger(self, names: list[DnsName]) -> int:
        emitted = 0
        rcpt_to = f"{self.rcpt_localpart}@{self.smtp_server.domain}"
        for probe_name in names:
            attempt = self.smtp_server.receive_message(
                mail_from=f"{self.sender_localpart}@{probe_name}",
                rcpt_to=rcpt_to,
            )
            self.messages_sent += 1
            if attempt.lookups:
                emitted += 1
        return emitted

    @property
    def lookups_per_probe(self) -> int:
        """How many DNS lookups this server performs per message."""
        policy = self.smtp_server.policy
        count = sum([
            policy.checks_spf_txt, policy.checks_spf_legacy,
            policy.checks_adsp, policy.checks_dkim, policy.checks_dmarc,
        ])
        if policy.resolves_bounce_mx:
            count += 2  # MX then A
        return count


class BrowserProber:
    """Indirect prober riding a web client attracted via the ad network
    (§III-C).  Each probe name is fetched once as a URL."""

    def __init__(self, browser: Browser, url_path: str = "/t.gif"):
        self.browser = browser
        self.url_path = url_path
        self.urls_fetched: list[str] = []

    def trigger(self, names: list[DnsName]) -> int:
        emitted = 0
        for probe_name in names:
            url = f"http://{probe_name}{self.url_path}"
            self.urls_fetched.append(url)
            result = self.browser.fetch(url)
            if not result.from_browser_cache:
                emitted += 1
        return emitted
