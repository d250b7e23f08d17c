"""EDNS(0) helpers (RFC 6891).

The paper's motivation section names "adoption of new mechanisms for DNS,
such as the transport layer EDNS mechanism" as a use case for the cache
study: once caches can be addressed individually, per-cache EDNS support
can be measured.  This module provides the small amount of EDNS machinery
needed for that: payload-size negotiation and a per-responder support probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .message import DnsMessage
from .wire import message_size_upper_bound, message_wire_size

#: Conventional advertised payload size of modern resolvers.
DEFAULT_PAYLOAD_SIZE = 4096
#: RFC 1035 limit for plain (non-EDNS) UDP.
CLASSIC_UDP_LIMIT = 512


def effective_payload_limit(query: DnsMessage, responder_max: Optional[int]) -> int:
    """The payload limit in force for a response.

    ``responder_max`` is the responder's own configured maximum (``None``
    means the responder does not speak EDNS).  The limit is the minimum of
    the two sides' advertisements, falling back to 512 when either side
    lacks EDNS.
    """
    if query.edns_payload_size is None or responder_max is None:
        return CLASSIC_UDP_LIMIT
    return max(CLASSIC_UDP_LIMIT, min(query.edns_payload_size, responder_max))


def maybe_truncate(query: DnsMessage, response: DnsMessage,
                   responder_max: Optional[int]) -> DnsMessage:
    """Apply UDP truncation when the response exceeds the payload limit.

    TCP responses are exempt.  A truncated response keeps only the header
    and question with the TC bit set (RFC 2181 §9 minimal style), telling
    the client to retry over TCP.
    """
    if query.via_tcp:
        return response
    limit = effective_payload_limit(query, responder_max)
    # The uncompressed upper bound is a superset of the encoded size, so a
    # bound that already fits proves the response fits without encoding it
    # (the common case: minimal responses are far below 512 bytes).
    if message_size_upper_bound(response) <= limit:
        return response
    if message_wire_size(response) <= limit:
        return response
    truncated = query.make_response(response.rcode)
    truncated.truncated = True
    truncated.authoritative = response.authoritative
    truncated.recursion_available = response.recursion_available
    truncated.edns_payload_size = response.edns_payload_size
    return truncated


@dataclass
class EdnsProbeResult:
    supports_edns: bool
    advertised_size: Optional[int]


def probe_edns(send: Callable[[DnsMessage], DnsMessage],
               query: DnsMessage) -> EdnsProbeResult:
    """Probe one responder for EDNS support.

    ``send`` performs the transaction.  The query is sent with an OPT
    record; a response that echoes an OPT record indicates support.
    """
    query.edns_payload_size = DEFAULT_PAYLOAD_SIZE
    response = send(query)
    if response.edns_payload_size is not None:
        return EdnsProbeResult(True, response.edns_payload_size)
    return EdnsProbeResult(False, None)
