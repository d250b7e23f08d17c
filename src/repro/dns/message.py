"""DNS messages.

:class:`DnsMessage` mirrors the RFC 1035 message structure: a header
(id, flags, rcode), one question, and answer/authority/additional sections.
Factory helpers build the response shapes the library needs — answers,
referrals, NXDOMAIN and NODATA — so server code stays declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .name import DnsName
from .record import ResourceRecord, RRSet
from .rrtype import Opcode, RCode, RRClass, RRType


@dataclass
class Question:
    qname: DnsName
    qtype: RRType
    qclass: RRClass = RRClass.IN

    def to_text(self) -> str:
        return f"{self.qname}. {self.qclass} {self.qtype}"


@dataclass
class DnsMessage:
    """A DNS query or response."""

    msg_id: int = 0
    question: Optional[Question] = None
    is_response: bool = False
    opcode: Opcode = Opcode.QUERY
    rcode: RCode = RCode.NOERROR
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    answers: list[ResourceRecord] = field(default_factory=list)
    authority: list[ResourceRecord] = field(default_factory=list)
    additional: list[ResourceRecord] = field(default_factory=list)
    edns_payload_size: Optional[int] = None  # None == no OPT record
    #: Transport metadata (not a wire field): True when the message is
    #: carried over TCP, which lifts the UDP payload limit and exempts the
    #: response from truncation.
    via_tcp: bool = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def make_query(cls, qname: DnsName, qtype: RRType, msg_id: int = 0,
                   recursion_desired: bool = True,
                   edns_payload_size: Optional[int] = None) -> "DnsMessage":
        return cls(
            msg_id=msg_id,
            question=Question(qname, qtype),
            recursion_desired=recursion_desired,
            edns_payload_size=edns_payload_size,
        )

    def make_response(self, rcode: RCode = RCode.NOERROR) -> "DnsMessage":
        """A response skeleton echoing this query's id and question."""
        return DnsMessage(
            msg_id=self.msg_id,
            question=self.question,
            is_response=True,
            rcode=rcode,
            recursion_desired=self.recursion_desired,
            edns_payload_size=self.edns_payload_size,
            via_tcp=self.via_tcp,
        )

    def over_tcp(self) -> "DnsMessage":
        """A copy of this query marked for TCP transport (TC retry)."""
        from dataclasses import replace

        return replace(self, via_tcp=True,
                       answers=list(self.answers),
                       authority=list(self.authority),
                       additional=list(self.additional))

    # -- section helpers ----------------------------------------------------

    def add_answer(self, records: Iterable[ResourceRecord] | RRSet) -> "DnsMessage":
        self.answers.extend(records)
        return self

    def add_authority(self, records: Iterable[ResourceRecord] | RRSet) -> "DnsMessage":
        self.authority.extend(records)
        return self

    def add_additional(self, records: Iterable[ResourceRecord] | RRSet) -> "DnsMessage":
        self.additional.extend(records)
        return self

    # -- inspection -----------------------------------------------------------

    @property
    def qname(self) -> DnsName:
        assert self.question is not None
        return self.question.qname

    @property
    def qtype(self) -> RRType:
        assert self.question is not None
        return self.question.qtype

    def answers_of_type(self, rtype: RRType) -> list[ResourceRecord]:
        return [record for record in self.answers if record.rtype == rtype]

    def authority_of_type(self, rtype: RRType) -> list[ResourceRecord]:
        return [record for record in self.authority if record.rtype == rtype]

    def is_referral(self) -> bool:
        """A NOERROR response with no answers but NS records in authority."""
        if not self.is_response or self.rcode != RCode.NOERROR \
                or self.answers or self.authoritative:
            return False
        # A loop, not any() over a generator: every response ingested by
        # the iterative resolver asks.
        for record in self.authority:
            if record.rtype == RRType.NS:
                return True
        return False

    def is_nxdomain(self) -> bool:
        return self.is_response and self.rcode == RCode.NXDOMAIN

    def is_nodata(self) -> bool:
        return (
            self.is_response
            and self.rcode == RCode.NOERROR
            and not self.answers
            and not self.is_referral()
        )

    def min_answer_ttl(self) -> int:
        if not self.answers:
            return 0
        return min(record.ttl for record in self.answers)

    def to_text(self) -> str:
        lines = [
            f";; id={self.msg_id} opcode={self.opcode.name} rcode={self.rcode} "
            f"qr={int(self.is_response)} aa={int(self.authoritative)} "
            f"rd={int(self.recursion_desired)} ra={int(self.recursion_available)}"
        ]
        if self.question:
            lines.append(f";; QUESTION\n{self.question.to_text()}")
        for title, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authority),
            ("ADDITIONAL", self.additional),
        ):
            if section:
                lines.append(f";; {title}")
                lines.extend(record.to_text() for record in section)
        return "\n".join(lines)
