"""Exception hierarchy for the DNS substrate.

Every error raised by :mod:`repro.dns` derives from :class:`DnsError`, so
callers can catch protocol-level problems with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class DnsError(Exception):
    """Base class for all DNS substrate errors."""


class NameError_(DnsError):
    """A domain name is syntactically invalid (label/length limits)."""


class WireFormatError(DnsError):
    """A DNS message could not be encoded to, or decoded from, wire format."""


class ZoneError(DnsError):
    """Zone data is inconsistent (missing SOA, out-of-bailiwick record...)."""


class ZoneParseError(ZoneError):
    """A textual zone fragment could not be parsed."""


class ResolutionError(DnsError):
    """Recursive/iterative resolution failed (SERVFAIL equivalent)."""


class CnameLoopError(ResolutionError):
    """A CNAME chain loops or exceeds the permitted length."""


class ReferralLoopError(ResolutionError):
    """Delegations loop or exceed the permitted depth."""


class NetworkUnreachable(DnsError):
    """No endpoint is registered for the destination IP address."""


class QueryTimeout(DnsError):
    """A query (or every retransmission of it) was lost in the network."""


@dataclass
class AttemptRecord:
    """One failed attempt of one probe, as seen by the resilience layer."""

    attempt: int                 # 1-based
    started_at: float            # virtual-clock time
    outcome: str                 # "timeout" | "servfail" | "refused"
    rtt: Optional[float] = None


class ProbeFailure(QueryTimeout, ResolutionError):
    """A probe failed after every permitted attempt.

    Subclasses both :class:`QueryTimeout` (what the direct path
    historically raised) and :class:`ResolutionError` (what the
    indirect/stub path historically raised), so every existing ``except``
    clause keeps working — but callers now get the full attempt history
    instead of a bare exception.

    Defined here rather than in :mod:`repro.core.resilient` (which
    re-exports it) so that resolver-layer code can raise and type it
    without importing upward across the architecture DAG.
    """

    def __init__(self, message: str,
                 attempts: tuple[AttemptRecord, ...] = ()):
        super().__init__(message)
        self.attempts = attempts

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def last_outcome(self) -> Optional[str]:
        return self.attempts[-1].outcome if self.attempts else None
