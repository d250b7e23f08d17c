"""RFC 1035 wire-format encoding and decoding.

The simulator routes :class:`~repro.dns.message.DnsMessage` objects in
memory, but the wire codec is load-bearing in three places: computing
truncation against EDNS payload sizes, measuring message sizes for the
latency model, and property-testing that the message model round-trips
through the real on-the-wire representation (including name compression).
"""

from __future__ import annotations

import struct
from typing import Optional

from .errors import WireFormatError
from .message import DnsMessage, Question
from .name import DnsName
from .record import (
    AaaaRdata,
    ARdata,
    CnameRdata,
    MxRdata,
    NsRdata,
    OpaqueRdata,
    PtrRdata,
    Rdata,
    ResourceRecord,
    SoaRdata,
    SrvRdata,
    TxtRdata,
)
from .rrtype import Opcode, RCode, RRClass, RRType

_MAX_UDP_PAYLOAD = 512
_POINTER_MASK = 0xC0

# Record types whose rdata embeds a domain name eligible for compression.
_NAME_RDATA_TYPES = {RRType.NS, RRType.CNAME, RRType.PTR}


class _NameWire:
    """Precomputed per-name encoding state shared across messages.

    ``raw`` is the full uncompressed wire form (length-prefixed labels plus
    the terminal zero octet); ``suffixes[i]`` is the case-folded suffix
    tuple starting at label ``i`` (the compressor's map key) and
    ``starts[i]`` is that label's byte offset inside ``raw``.
    """

    __slots__ = ("raw", "suffixes", "starts")

    def __init__(self, name: DnsName) -> None:
        labels = name.labels
        folded = name.folded
        raw = bytearray()
        suffixes = []
        starts = []
        for index, label in enumerate(labels):
            suffixes.append(folded[index:])
            starts.append(len(raw))
            encoded = label.encode("ascii")
            raw.append(len(encoded))
            raw += encoded
        raw.append(0)
        self.raw = bytes(raw)
        self.suffixes = tuple(suffixes)
        self.starts = tuple(starts)


#: Per-name encode cache, keyed by the exact (case-preserving) label tuple
#: so distinct spellings of equal names never share raw bytes.  Bounded the
#: same way as the ``DnsName`` intern table: cleared, not evicted, when full
#: (the hot set — zone origins, infrastructure names — repopulates at once).
_NAME_WIRE_CACHE_MAX = 8192
_name_wire_cache: dict[tuple[str, ...], _NameWire] = {}

#: Wire-codec fast-path counters, sampled by the perf layer
#: (:func:`wire_cache_counters`).  Module-global so every encode in the
#: process is counted, including ones inside worker shards.
_wire_cache_hits = 0
_wire_cache_misses = 0


def wire_cache_counters() -> tuple[int, int]:
    """Current (hits, misses) of the per-name encode cache."""
    return (_wire_cache_hits, _wire_cache_misses)


def _name_wire(name: DnsName) -> _NameWire:
    global _wire_cache_hits, _wire_cache_misses
    key = name.labels
    entry = _name_wire_cache.get(key)
    if entry is not None:
        _wire_cache_hits += 1
        return entry
    _wire_cache_misses += 1
    entry = _NameWire(name)
    if len(_name_wire_cache) >= _NAME_WIRE_CACHE_MAX:
        _name_wire_cache.clear()
    _name_wire_cache[key] = entry
    return entry


class _Compressor:
    """Tracks name→offset mappings while encoding."""

    def __init__(self) -> None:
        self._offsets: dict[tuple[str, ...], int] = {}

    def encode_name(self, name: DnsName, buffer: bytearray) -> None:
        # Fast path over the per-name cache: identical byte output to the
        # label-at-a-time loop, but the suffix tuples and label bytes are
        # computed once per distinct name instead of once per occurrence.
        wire = _name_wire(name)
        offsets = self._offsets
        base = len(buffer)
        for index, suffix in enumerate(wire.suffixes):
            known = offsets.get(suffix)
            if known is not None and known < 0x3FFF:
                buffer += wire.raw[:wire.starts[index]]
                buffer += struct.pack("!H", 0xC000 | known)
                return
            position = base + wire.starts[index]
            if position < 0x3FFF:
                offsets[suffix] = position
        buffer += wire.raw


def _encode_ipv4(address: str) -> bytes:
    parts = address.split(".")
    if len(parts) != 4:
        raise WireFormatError(f"bad IPv4 address {address!r}")
    try:
        octets = bytes(int(part) for part in parts)
    except ValueError:
        raise WireFormatError(f"bad IPv4 address {address!r}") from None
    if len(octets) != 4:
        raise WireFormatError(f"bad IPv4 address {address!r}")
    return octets


def _decode_ipv4(data: bytes) -> str:
    if len(data) != 4:
        raise WireFormatError("A rdata must be 4 bytes")
    return ".".join(str(b) for b in data)


def _encode_ipv6(address: str) -> bytes:
    # Minimal IPv6 text parsing: groups with one optional "::" elision.
    if "::" in address:
        head, _, tail = address.partition("::")
        head_groups = [g for g in head.split(":") if g]
        tail_groups = [g for g in tail.split(":") if g]
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 0:
            raise WireFormatError(f"bad IPv6 address {address!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = address.split(":")
    if len(groups) != 8:
        raise WireFormatError(f"bad IPv6 address {address!r}")
    try:
        return b"".join(struct.pack("!H", int(group, 16)) for group in groups)
    except ValueError:
        raise WireFormatError(f"bad IPv6 address {address!r}") from None


def _decode_ipv6(data: bytes) -> str:
    if len(data) != 16:
        raise WireFormatError("AAAA rdata must be 16 bytes")
    groups = [f"{struct.unpack('!H', data[i:i + 2])[0]:x}" for i in range(0, 16, 2)]
    return ":".join(groups)


def _encode_rdata(record: ResourceRecord, buffer: bytearray,
                  compressor: _Compressor) -> None:
    """Append the rdata with its 16-bit length prefix."""
    length_at = len(buffer)
    buffer += b"\x00\x00"  # placeholder
    rdata = record.rdata
    if isinstance(rdata, ARdata):
        buffer += _encode_ipv4(rdata.address)
    elif isinstance(rdata, AaaaRdata):
        buffer += _encode_ipv6(rdata.address)
    elif isinstance(rdata, NsRdata):
        compressor.encode_name(rdata.nsdname, buffer)
    elif isinstance(rdata, CnameRdata):
        compressor.encode_name(rdata.target, buffer)
    elif isinstance(rdata, PtrRdata):
        compressor.encode_name(rdata.target, buffer)
    elif isinstance(rdata, MxRdata):
        buffer += struct.pack("!H", rdata.preference)
        compressor.encode_name(rdata.exchange, buffer)
    elif isinstance(rdata, TxtRdata):
        for string in rdata.strings:
            encoded = string.encode("utf-8")
            if len(encoded) > 255:
                raise WireFormatError("TXT string longer than 255 bytes")
            buffer.append(len(encoded))
            buffer += encoded
    elif isinstance(rdata, SoaRdata):
        # SOA names are compressible but we emit them uncompressed through the
        # compressor anyway (it handles both).
        compressor.encode_name(rdata.mname, buffer)
        compressor.encode_name(rdata.rname, buffer)
        buffer += struct.pack(
            "!IIIII", rdata.serial, rdata.refresh, rdata.retry,
            rdata.expire, rdata.minimum,
        )
    elif isinstance(rdata, SrvRdata):
        buffer += struct.pack("!HHH", rdata.priority, rdata.weight, rdata.port)
        # RFC 2782: SRV target must not be compressed.
        _Compressor().encode_name(rdata.target, buffer)
    elif isinstance(rdata, OpaqueRdata):
        buffer += rdata.text.encode("utf-8")
    else:
        raise WireFormatError(f"cannot encode rdata {rdata!r}")
    rdlength = len(buffer) - length_at - 2
    struct.pack_into("!H", buffer, length_at, rdlength)


def _encode_record(record: ResourceRecord, buffer: bytearray,
                   compressor: _Compressor) -> None:
    compressor.encode_name(record.name, buffer)
    buffer += struct.pack("!HHI", int(record.rtype), int(record.rclass), record.ttl)
    _encode_rdata(record, buffer, compressor)


def _encode_opt(payload_size: int, buffer: bytearray) -> None:
    buffer.append(0)  # root owner
    buffer += struct.pack("!HHIH", int(RRType.OPT), payload_size, 0, 0)


#: Reusable encode buffer.  Encoding is synchronous and single-threaded in
#: the simulator, but a reentrancy guard keeps nested encodes (e.g. from a
#: debugger or a future re-entrant caller) correct by falling back to a
#: fresh allocation.
_scratch_buffer = bytearray()
_scratch_in_use = False


def encode_message(message: DnsMessage) -> bytes:
    """Encode to wire bytes."""
    global _scratch_in_use
    if _scratch_in_use:
        buffer = bytearray()
        _encode_into(message, buffer)
        return bytes(buffer)
    _scratch_in_use = True
    try:
        buffer = _scratch_buffer
        del buffer[:]
        _encode_into(message, buffer)
        return bytes(buffer)
    finally:
        _scratch_in_use = False


def _encode_into(message: DnsMessage, buffer: bytearray) -> None:
    flags = 0
    if message.is_response:
        flags |= 0x8000
    flags |= (int(message.opcode) & 0xF) << 11
    if message.authoritative:
        flags |= 0x0400
    if message.truncated:
        flags |= 0x0200
    if message.recursion_desired:
        flags |= 0x0100
    if message.recursion_available:
        flags |= 0x0080
    flags |= int(message.rcode) & 0xF
    additional_count = len(message.additional)
    if message.edns_payload_size is not None:
        additional_count += 1
    buffer += struct.pack(
        "!HHHHHH",
        message.msg_id,
        flags,
        1 if message.question else 0,
        len(message.answers),
        len(message.authority),
        additional_count,
    )
    compressor = _Compressor()
    if message.question:
        compressor.encode_name(message.question.qname, buffer)
        buffer += struct.pack(
            "!HH", int(message.question.qtype), int(message.question.qclass)
        )
    for record in message.answers:
        _encode_record(record, buffer, compressor)
    for record in message.authority:
        _encode_record(record, buffer, compressor)
    for record in message.additional:
        _encode_record(record, buffer, compressor)
    if message.edns_payload_size is not None:
        _encode_opt(message.edns_payload_size, buffer)


def message_wire_size(message: DnsMessage) -> int:
    """Size in bytes of the encoded message (used by the latency model)."""
    global _scratch_in_use
    if _scratch_in_use:
        return len(encode_message(message))
    _scratch_in_use = True
    try:
        buffer = _scratch_buffer
        del buffer[:]
        _encode_into(message, buffer)
        return len(buffer)
    finally:
        _scratch_in_use = False


def _rdata_size_bound(rdata: Rdata) -> int:
    # SOA first, its names' sizes read from their caches once set: every
    # negative answer carries one.
    if isinstance(rdata, SoaRdata):
        mname, rname = rdata.mname._wire_length, rdata.rname._wire_length
        if mname is None or rname is None:
            return rdata.mname.wire_length + rdata.rname.wire_length + 20
        return mname + rname + 20
    if isinstance(rdata, ARdata):
        return 4
    if isinstance(rdata, AaaaRdata):
        return 16
    if isinstance(rdata, NsRdata):
        return rdata.nsdname.wire_length
    if isinstance(rdata, (CnameRdata, PtrRdata)):
        return rdata.target.wire_length
    if isinstance(rdata, MxRdata):
        return 2 + rdata.exchange.wire_length
    if isinstance(rdata, TxtRdata):
        # UTF-8 expands at most 4x over the character count.
        return sum(4 * len(string) + 1 for string in rdata.strings)
    if isinstance(rdata, SrvRdata):
        return 6 + rdata.target.wire_length
    if isinstance(rdata, OpaqueRdata):
        return 4 * len(rdata.text)
    raise WireFormatError(f"cannot size rdata {rdata!r}")


#: The exact rdata size of the fixed-size types, looked up by the rdata's
#: own type before :func:`_rdata_size_bound` is consulted.
_FIXED_RDATA_SIZE: dict[type, int] = {ARdata: 4, AaaaRdata: 16}


def message_size_upper_bound(message: DnsMessage) -> int:
    """A cheap upper bound on :func:`message_wire_size`.

    Sums uncompressed worst-case sizes without touching the encoder, so
    callers that only need "does it fit?" (truncation checks) can skip the
    full encode whenever the bound already fits.  Never smaller than the
    encoded size: compression only shrinks names, and every per-rdata bound
    is conservative.  Each name's uncompressed size is
    :attr:`DnsName.wire_length`, computed once per name.
    """
    # Each name's DnsName.wire_length is read from its cache once set.
    size = 12  # header
    if message.question is not None:
        qname = message.question.qname
        qname_size = qname._wire_length
        if qname_size is None:
            qname_size = qname.wire_length
        size += qname_size + 4
    fixed = _FIXED_RDATA_SIZE
    for section in (message.answers, message.authority, message.additional):
        for record in section:
            rdata = record.rdata
            bound = fixed.get(type(rdata))
            if bound is None:
                bound = _rdata_size_bound(rdata)
            owner = record.name
            owner_size = owner._wire_length
            if owner_size is None:
                owner_size = owner.wire_length
            size += owner_size + 10 + bound
    if message.edns_payload_size is not None:
        size += 11  # root owner + OPT fixed fields
    return size


def exceeds_payload(message: DnsMessage) -> bool:
    """Whether the encoded response overflows the negotiated UDP payload."""
    limit = message.edns_payload_size or _MAX_UDP_PAYLOAD
    return message_wire_size(message) > limit


# --------------------------------------------------------------------------
# decoding
# --------------------------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise WireFormatError("truncated message")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def read_u8(self) -> int:
        return self.read(1)[0]

    def read_u16(self) -> int:
        return struct.unpack("!H", self.read(2))[0]

    def read_u32(self) -> int:
        return struct.unpack("!I", self.read(4))[0]

    def read_name(self) -> DnsName:
        labels: list[str] = []
        jumps = 0
        pos = self.pos
        end: Optional[int] = None
        while True:
            if pos >= len(self.data):
                raise WireFormatError("name runs past end of message")
            length = self.data[pos]
            if length & _POINTER_MASK == _POINTER_MASK:
                if pos + 1 >= len(self.data):
                    raise WireFormatError("dangling compression pointer")
                target = ((length & 0x3F) << 8) | self.data[pos + 1]
                if end is None:
                    end = pos + 2
                jumps += 1
                if jumps > 128:
                    raise WireFormatError("compression pointer loop")
                if target >= pos:
                    raise WireFormatError("forward compression pointer")
                pos = target
                continue
            if length & _POINTER_MASK:
                raise WireFormatError("reserved label type")
            if length == 0:
                if end is None:
                    end = pos + 1
                break
            label_bytes = self.data[pos + 1:pos + 1 + length]
            if len(label_bytes) != length:
                raise WireFormatError("label runs past end of message")
            labels.append(label_bytes.decode("ascii"))
            pos += 1 + length
        self.pos = end
        return DnsName(labels)


def _decode_rdata(rtype: RRType, rdlength: int, reader: _Reader) -> Rdata:
    end = reader.pos + rdlength
    if rtype == RRType.A:
        rdata: Rdata = ARdata(_decode_ipv4(reader.read(4)))
    elif rtype == RRType.AAAA:
        rdata = AaaaRdata(_decode_ipv6(reader.read(16)))
    elif rtype == RRType.NS:
        rdata = NsRdata(reader.read_name())
    elif rtype == RRType.CNAME:
        rdata = CnameRdata(reader.read_name())
    elif rtype == RRType.PTR:
        rdata = PtrRdata(reader.read_name())
    elif rtype == RRType.MX:
        preference = reader.read_u16()
        rdata = MxRdata(preference, reader.read_name())
    elif rtype in (RRType.TXT, RRType.SPF):
        strings: list[str] = []
        while reader.pos < end:
            length = reader.read_u8()
            strings.append(reader.read(length).decode("utf-8"))
        rdata = TxtRdata(tuple(strings))
    elif rtype == RRType.SOA:
        mname = reader.read_name()
        rname = reader.read_name()
        serial = reader.read_u32()
        refresh = reader.read_u32()
        retry = reader.read_u32()
        expire = reader.read_u32()
        minimum = reader.read_u32()
        rdata = SoaRdata(mname, rname, serial, refresh, retry, expire, minimum)
    elif rtype == RRType.SRV:
        priority = reader.read_u16()
        weight = reader.read_u16()
        port = reader.read_u16()
        rdata = SrvRdata(priority, weight, port, reader.read_name())
    else:
        rdata = OpaqueRdata(reader.read(rdlength).decode("utf-8", "replace"))
    if reader.pos != end:
        raise WireFormatError(f"rdata length mismatch for {rtype}")
    return rdata


def decode_message(data: bytes) -> DnsMessage:
    """Decode wire bytes to a :class:`DnsMessage`.

    Malformed input of any kind raises :class:`WireFormatError`; no other
    exception type escapes (the decoder is fuzz-safe).
    """
    try:
        return _decode_message(data)
    except WireFormatError:
        raise
    except (ValueError, UnicodeDecodeError, KeyError) as error:
        # Unknown enum values, non-ASCII labels, malformed integers...
        raise WireFormatError(f"malformed message: {error}") from error


def _decode_message(data: bytes) -> DnsMessage:
    reader = _Reader(data)
    msg_id = reader.read_u16()
    flags = reader.read_u16()
    qdcount = reader.read_u16()
    ancount = reader.read_u16()
    nscount = reader.read_u16()
    arcount = reader.read_u16()
    message = DnsMessage(
        msg_id=msg_id,
        is_response=bool(flags & 0x8000),
        opcode=Opcode((flags >> 11) & 0xF),
        authoritative=bool(flags & 0x0400),
        truncated=bool(flags & 0x0200),
        recursion_desired=bool(flags & 0x0100),
        recursion_available=bool(flags & 0x0080),
        rcode=RCode(flags & 0xF),
    )
    if qdcount > 1:
        raise WireFormatError("multiple questions not supported")
    if qdcount:
        qname = reader.read_name()
        qtype = RRType(reader.read_u16())
        qclass = RRClass(reader.read_u16())
        message.question = Question(qname, qtype, qclass)
    for section, count in (
        (message.answers, ancount),
        (message.authority, nscount),
        (message.additional, arcount),
    ):
        for _ in range(count):
            owner = reader.read_name()
            rtype_raw = reader.read_u16()
            rclass_raw = reader.read_u16()
            ttl = reader.read_u32()
            rdlength = reader.read_u16()
            try:
                rtype = RRType(rtype_raw)
            except ValueError:
                reader.read(rdlength)
                continue
            if rtype == RRType.OPT:
                message.edns_payload_size = rclass_raw
                reader.read(rdlength)
                continue
            rdata = _decode_rdata(rtype, rdlength, reader)
            section.append(
                ResourceRecord(owner, rtype, ttl, rdata, RRClass(rclass_raw))
            )
    return message
