"""SMTP servers that trigger DNS lookups on bounce generation.

Paper §III-B: "We establish an SMTP session to each SMTP email server [...]
over which we sent an email message to a non-existing email-box in the
target domain.  Upon receipt of email messages, the SMTP servers trigger DNS
requests via the local recursive resolvers in order to locate or to
authenticate the originator of the email message.  Since the destination is
a non-existing recipient, the receiving email server must generate a
Delivery Status Notification (DSN, or bounce) message [RFC5321]."

:class:`SmtpServer` models one enterprise mail server: it accepts a message,
runs its configured sender-authentication checks (each one a real DNS lookup
through the enterprise's resolution platform), and, for unknown recipients,
performs the MX/A lookups needed to route the bounce.  The per-mechanism
lookup mix is what regenerates the paper's Table I.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..dns.errors import ResolutionError
from ..dns.name import DnsName, name as make_name
from ..dns.rrtype import RRType
from ..resolver.stub import StubResolver


@dataclass(frozen=True)
class SmtpAuthPolicy:
    """Which sender-verification mechanisms this server runs.

    Field defaults match no checks; the population generator draws each flag
    with the marginal frequency the paper measured (Table I).
    """

    checks_spf_txt: bool = False      # modern SPF, published in TXT
    checks_spf_legacy: bool = False   # obsolete SPF qtype 99 [RFC7208]
    checks_adsp: bool = False         # ADSP (with DKIM)
    checks_dkim: bool = False         # DKIM key fetch
    checks_dmarc: bool = False        # DMARC policy
    resolves_bounce_mx: bool = False  # MX/A of the sender for the DSN

    @classmethod
    def draw(cls, rng: random.Random,
             fractions: Optional[dict[str, float]] = None) -> "SmtpAuthPolicy":
        """Draw a policy with the paper's Table I marginal frequencies."""
        f = fractions or TABLE1_FRACTIONS
        return cls(
            checks_spf_txt=rng.random() < f["spf_txt"],
            checks_spf_legacy=rng.random() < f["spf_legacy"],
            checks_adsp=rng.random() < f["adsp"],
            checks_dkim=rng.random() < f["dkim"],
            checks_dmarc=rng.random() < f["dmarc"],
            resolves_bounce_mx=rng.random() < f["bounce_mx"],
        )


#: Marginal per-mechanism frequencies reported in Table I of the paper.
TABLE1_FRACTIONS = {
    "spf_txt": 0.696,
    "spf_legacy": 0.142,
    "adsp": 0.02,
    "dkim": 0.003,
    "dmarc": 0.353,
    "bounce_mx": 0.304,
}

#: DKIM selector used when fetching a key (any selector works for counting).
DKIM_SELECTOR = "default"


@dataclass
class DeliveryAttempt:
    """Record of one received message and the lookups it caused."""

    mail_from: str
    rcpt_to: str
    bounced: bool
    lookups: list[tuple[DnsName, RRType]] = field(default_factory=list)


class SmtpServer:
    """One enterprise mail server with its local resolver."""

    def __init__(self, domain: str | DnsName, host_ip: str,
                 stub: StubResolver, policy: SmtpAuthPolicy,
                 mailbox_names: Optional[set[str]] = None):
        self.domain = make_name(domain) if isinstance(domain, str) else domain
        self.host_ip = host_ip
        self.stub = stub
        self.policy = policy
        self.mailboxes = mailbox_names if mailbox_names is not None else {"postmaster"}
        self.attempts: list[DeliveryAttempt] = []

    # -- the SMTP surface -------------------------------------------------

    def receive_message(self, mail_from: str, rcpt_to: str) -> DeliveryAttempt:
        """Accept a message; run auth checks; bounce unknown recipients.

        ``mail_from`` is ``user@sender.domain``; all DNS lookups derive from
        the sender domain, which is how the CDE smuggles probe names into
        the enterprise's resolution platform.
        """
        sender_domain = DnsName.from_text(mail_from.rpartition("@")[2])
        local_part = rcpt_to.rsplit("@", 1)[0]
        attempt = DeliveryAttempt(mail_from=mail_from, rcpt_to=rcpt_to,
                                  bounced=local_part not in self.mailboxes)
        self._run_auth_checks(sender_domain, attempt)
        if attempt.bounced:
            self._route_bounce(sender_domain, attempt)
        self.attempts.append(attempt)
        return attempt

    # -- lookup machinery ---------------------------------------------------

    def _lookup(self, qname: DnsName, qtype: RRType,
                attempt: DeliveryAttempt) -> None:
        attempt.lookups.append((qname, qtype))
        try:
            self.stub.query(qname, qtype)
        except ResolutionError:
            pass  # verification failures do not stop bounce processing

    def _run_auth_checks(self, sender_domain: DnsName,
                         attempt: DeliveryAttempt) -> None:
        policy = self.policy
        if policy.checks_spf_txt:
            self._lookup(sender_domain, RRType.TXT, attempt)
        if policy.checks_spf_legacy:
            self._lookup(sender_domain, RRType.SPF, attempt)
        if policy.checks_dmarc:
            self._lookup(sender_domain.prepend("_dmarc"), RRType.TXT, attempt)
        if policy.checks_adsp:
            self._lookup(sender_domain.prepend("_adsp", "_domainkey"),
                         RRType.TXT, attempt)
        if policy.checks_dkim:
            self._lookup(sender_domain.prepend(DKIM_SELECTOR, "_domainkey"),
                         RRType.TXT, attempt)

    def _route_bounce(self, sender_domain: DnsName,
                      attempt: DeliveryAttempt) -> None:
        """Find where to deliver the DSN: the sender's MX, then its A."""
        if not self.policy.resolves_bounce_mx:
            return
        self._lookup(sender_domain, RRType.MX, attempt)
        self._lookup(sender_domain, RRType.A, attempt)
