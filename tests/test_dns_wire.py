"""Wire-format round-trip tests, including hypothesis properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns import (
    DnsMessage,
    RCode,
    RRType,
    WireFormatError,
    a_record,
    aaaa_record,
    cname_record,
    decode_message,
    encode_message,
    message_wire_size,
    mx_record,
    name,
    ns_record,
    soa_record,
    txt_record,
)
from repro.dns.edns import effective_payload_limit, maybe_truncate
from repro.dns.name import DnsName
from repro.dns.wire import exceeds_payload, message_size_upper_bound


def roundtrip(message):
    return decode_message(encode_message(message))


class TestHeaderRoundtrip:
    def test_query_roundtrip(self):
        query = DnsMessage.make_query(name("www.example.com"), RRType.A,
                                      msg_id=1234)
        decoded = roundtrip(query)
        assert decoded.msg_id == 1234
        assert decoded.qname == name("www.example.com")
        assert decoded.qtype == RRType.A
        assert not decoded.is_response
        assert decoded.recursion_desired

    def test_flags_roundtrip(self):
        query = DnsMessage.make_query(name("x.example"), RRType.TXT)
        response = query.make_response(RCode.NXDOMAIN)
        response.authoritative = True
        response.recursion_available = True
        decoded = roundtrip(response)
        assert decoded.is_response
        assert decoded.authoritative
        assert decoded.recursion_available
        assert decoded.rcode == RCode.NXDOMAIN

    def test_truncated_flag(self):
        response = DnsMessage.make_query(name("x.example"), RRType.A) \
            .make_response()
        response.truncated = True
        assert roundtrip(response).truncated


class TestRecordRoundtrip:
    @pytest.mark.parametrize("record", [
        a_record(name("a.example"), "192.0.2.7", ttl=300),
        aaaa_record(name("a.example"), "2001:db8:0:0:0:0:0:1", ttl=60),
        ns_record(name("example"), name("ns1.example")),
        cname_record(name("www.example"), name("host.example")),
        mx_record(name("example"), 10, name("mail.example")),
        txt_record(name("example"), "v=spf1 -all"),
        soa_record(name("example"), name("ns.example"), name("root.example")),
    ])
    def test_single_record(self, record):
        query = DnsMessage.make_query(record.name, record.rtype)
        response = query.make_response()
        response.add_answer([record])
        decoded = roundtrip(response)
        assert decoded.answers == [record]

    def test_multi_section_roundtrip(self):
        query = DnsMessage.make_query(name("x.sub.example"), RRType.A)
        response = query.make_response()
        response.add_authority([ns_record(name("sub.example"),
                                          name("ns.sub.example"))])
        response.add_additional([a_record(name("ns.sub.example"), "10.0.0.1")])
        decoded = roundtrip(response)
        assert decoded.authority[0].rtype == RRType.NS
        assert decoded.additional[0].rdata.address == "10.0.0.1"

    def test_compression_shrinks_repeated_names(self):
        response = DnsMessage.make_query(name("host.example"), RRType.A) \
            .make_response()
        long_name = name("a-very-long-label-indeed.example")
        for i in range(4):
            response.add_answer([a_record(long_name, f"10.0.0.{i}")])
        size = message_wire_size(response)
        # Uncompressed, four copies of the owner would cost 4 * ~34 bytes.
        uncompressed_estimate = 12 + 18 + 4 * (34 + 14)
        assert size < uncompressed_estimate
        assert roundtrip(response).answers == response.answers

    def test_edns_opt_roundtrip(self):
        query = DnsMessage.make_query(name("x.example"), RRType.A,
                                      edns_payload_size=4096)
        assert roundtrip(query).edns_payload_size == 4096

    def test_txt_multiple_strings(self):
        record = txt_record(name("e.example"), "alpha", "beta")
        response = DnsMessage.make_query(record.name, RRType.TXT) \
            .make_response().add_answer([record])
        assert roundtrip(response).answers[0].rdata.strings == ("alpha", "beta")


class TestErrors:
    def test_truncated_message_rejected(self):
        data = encode_message(DnsMessage.make_query(name("x.example"), RRType.A))
        with pytest.raises(WireFormatError):
            decode_message(data[:8])

    def test_bad_ipv4_rejected(self):
        response = DnsMessage.make_query(name("x.example"), RRType.A) \
            .make_response()
        response.add_answer([a_record(name("x.example"), "1.2.3.4")])
        # Corrupt the rdata length by truncating the payload.
        data = encode_message(response)
        with pytest.raises(WireFormatError):
            decode_message(data[:-2])

    def test_exceeds_payload_classic_limit(self):
        response = DnsMessage.make_query(name("x.example"), RRType.TXT) \
            .make_response()
        response.add_answer([txt_record(name("x.example"), "x" * 250)
                             for _ in range(3)])
        assert exceeds_payload(response)


LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
                max_size=10).filter(lambda s: not s.startswith("-"))
WIRE_NAME = st.lists(LABEL, min_size=1, max_size=4).map(DnsName)


class TestProperties:
    @settings(max_examples=60)
    @given(qname=WIRE_NAME, msg_id=st.integers(0, 65535),
           qtype=st.sampled_from([RRType.A, RRType.NS, RRType.TXT, RRType.MX]))
    def test_query_roundtrip_property(self, qname, msg_id, qtype):
        query = DnsMessage.make_query(qname, qtype, msg_id=msg_id)
        decoded = roundtrip(query)
        assert decoded.qname == qname
        assert decoded.msg_id == msg_id
        assert decoded.qtype == qtype

    @settings(max_examples=60)
    @given(owners=st.lists(WIRE_NAME, min_size=1, max_size=5),
           ttl=st.integers(0, 2 ** 31 - 1))
    def test_answer_roundtrip_property(self, owners, ttl):
        response = DnsMessage.make_query(owners[0], RRType.A).make_response()
        for index, owner in enumerate(owners):
            response.add_answer([a_record(owner, f"10.1.{index % 250}.9",
                                          ttl=ttl)])
        assert roundtrip(response).answers == response.answers


_MIXED_LABEL = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
    min_size=1, max_size=63)
_SIZED_NAME = st.lists(_MIXED_LABEL, min_size=0, max_size=4).filter(
    lambda labels: sum(map(len, labels)) + len(labels) <= 254).map(DnsName)
_TXT_STRING = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60)
_ADDRESS = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda octets: ".".join(map(str, octets)))
_RECORD = st.one_of(
    st.builds(a_record, _SIZED_NAME, _ADDRESS),
    st.builds(ns_record, _SIZED_NAME, _SIZED_NAME),
    st.builds(cname_record, _SIZED_NAME, _SIZED_NAME),
    st.builds(mx_record, _SIZED_NAME, st.integers(0, 65535), _SIZED_NAME),
    st.builds(lambda owner, strings: txt_record(owner, *strings),
              _SIZED_NAME, st.lists(_TXT_STRING, min_size=1, max_size=3)),
    st.builds(soa_record, _SIZED_NAME, _SIZED_NAME, _SIZED_NAME))


class TestSizeUpperBound:
    """``message_size_upper_bound`` is what lets ``maybe_truncate`` skip
    the encoder; it must never undercount."""

    @staticmethod
    def _response(qname, answers, authority, additional, edns):
        query = DnsMessage.make_query(qname, RRType.A, edns_payload_size=edns)
        response = query.make_response()
        response.answers.extend(answers)
        response.authority.extend(authority)
        response.additional.extend(additional)
        return query, response

    @settings(max_examples=150)
    @given(qname=_SIZED_NAME,
           answers=st.lists(_RECORD, max_size=6),
           authority=st.lists(_RECORD, max_size=3),
           additional=st.lists(_RECORD, max_size=3),
           edns=st.sampled_from([None, 512, 1232, 4096]))
    def test_bound_covers_the_encoded_size(self, qname, answers, authority,
                                           additional, edns):
        _, response = self._response(qname, answers, authority, additional,
                                     edns)
        assert message_size_upper_bound(response) >= \
            message_wire_size(response)

    @settings(max_examples=150)
    @given(qname=_SIZED_NAME,
           answers=st.lists(_RECORD, max_size=12),
           edns=st.sampled_from([None, 512, 1232, 4096]),
           responder_max=st.sampled_from([None, 512, 1232, 4096]))
    def test_maybe_truncate_returns_the_response_when_it_fits(
            self, qname, answers, edns, responder_max):
        query, response = self._response(qname, answers, [], [], edns)
        limit = effective_payload_limit(query, responder_max)
        result = maybe_truncate(query, response, responder_max)
        if message_wire_size(response) <= limit:
            assert result is response
        else:
            assert result is not response
            assert result.truncated and not result.answers
