"""Tests for UDP truncation and TCP fallback."""

import pytest

from repro.dns import DnsMessage, RCode, RRType, name, txt_record
from repro.dns.edns import effective_payload_limit, maybe_truncate
from repro.dns.wire import message_size_upper_bound, message_wire_size


def big_txt_record(owner, size=700):
    chunks = tuple("x" * 250 for _ in range(size // 250 + 1))
    return txt_record(owner, *chunks)


class TestMaybeTruncate:
    def make_pair(self, edns=None, via_tcp=False):
        query = DnsMessage.make_query(name("big.example"), RRType.TXT,
                                      edns_payload_size=edns)
        query.via_tcp = via_tcp
        response = query.make_response()
        response.add_answer([big_txt_record(name("big.example"))])
        return query, response

    def test_oversize_udp_truncated(self):
        query, response = self.make_pair()
        result = maybe_truncate(query, response, responder_max=4096)
        assert result.truncated
        assert not result.answers
        assert message_wire_size(result) <= 512

    def test_small_response_untouched(self):
        query = DnsMessage.make_query(name("s.example"), RRType.TXT)
        response = query.make_response()
        response.add_answer([txt_record(name("s.example"), "tiny")])
        assert maybe_truncate(query, response, 4096) is response

    def test_bound_within_512_returns_before_the_limit(self, monkeypatch):
        """No limit is below 512 bytes, so a response whose size bound
        fits in 512 comes back unchanged without the limit computed."""
        from repro.dns import edns

        def no_limit(query, responder_max):
            raise AssertionError("limit computed for a response within 512")

        monkeypatch.setattr(edns, "effective_payload_limit", no_limit)
        query = DnsMessage.make_query(name("s.example"), RRType.TXT,
                                      edns_payload_size=4096)
        response = query.make_response()
        response.add_answer([txt_record(name("s.example"), "x" * 100)])
        assert 400 < message_size_upper_bound(response) <= 512
        assert maybe_truncate(query, response, 4096) is response
        assert maybe_truncate(query, response, None) is response

    def test_bound_above_512_still_reads_the_limit(self):
        """Past 512 the limit decides: kept under EDNS, cut without."""
        query = DnsMessage.make_query(name("m.example"), RRType.TXT,
                                      edns_payload_size=1232)
        response = query.make_response()
        response.add_answer([txt_record(name("m.example"), "x" * 200)])
        assert message_size_upper_bound(response) > 512
        assert message_wire_size(response) <= 512
        assert maybe_truncate(query, response, 4096) is response
        big = query.make_response()
        big.add_answer([big_txt_record(name("m.example"), size=600)])
        assert maybe_truncate(query, big, 4096) is big
        assert maybe_truncate(query, big, None).truncated

    def test_edns_lifts_limit(self):
        query, response = self.make_pair(edns=4096)
        result = maybe_truncate(query, response, responder_max=4096)
        assert result is response

    def test_tcp_exempt(self):
        query, response = self.make_pair(via_tcp=True)
        assert maybe_truncate(query, response, 4096) is response

    def test_effective_limit(self):
        query = DnsMessage.make_query(name("x.example"), RRType.A,
                                      edns_payload_size=1400)
        assert effective_payload_limit(query, 4096) == 1400
        assert effective_payload_limit(query, None) == 512
        plain = DnsMessage.make_query(name("x.example"), RRType.A)
        assert effective_payload_limit(plain, 4096) == 512


class TestTcpFallbackEndToEnd:
    @pytest.fixture
    def big_record_world(self, world):
        owner = world.cde.unique_name("big")
        world.cde.zone.add_record(big_txt_record(owner))
        return world, owner

    def test_prober_retries_over_tcp(self, big_record_world,
                                     single_cache_platform):
        world, owner = big_record_world
        ingress = single_cache_platform.platform.ingress_ips[0]
        result = world.prober.probe(ingress, owner, RRType.TXT)
        assert result.delivered
        response = result.transaction.response
        assert not response.truncated
        assert response.answers  # full answer arrived via TCP

    def test_platform_fetches_big_record_upstream(self, big_record_world,
                                                  single_cache_platform):
        """The platform's own egress must TCP-retry against our
        authoritative server (no EDNS on the probe side needed)."""
        world, owner = big_record_world
        ingress = single_cache_platform.platform.ingress_ips[0]
        result = world.prober.probe(ingress, owner, RRType.TXT)
        rdata = result.transaction.response.answers[0].rdata
        assert sum(len(chunk) for chunk in rdata.strings) >= 700

    def test_stub_retries_over_tcp(self, big_record_world,
                                   single_cache_platform):
        world, owner = big_record_world
        stub = world.make_stub(single_cache_platform)
        answer = stub.query(owner, RRType.TXT)
        assert answer.rcode == RCode.NOERROR
        assert answer.records

    def test_tcp_costs_more_time(self, world, single_cache_platform):
        ingress = single_cache_platform.platform.ingress_ips[0]
        small_name = world.cde.unique_name("small")
        big_name = world.cde.unique_name("big")
        world.cde.zone.add_record(big_txt_record(big_name))
        # Warm both into the cache so only the client leg differs.
        world.prober.probe(ingress, small_name, RRType.A)
        world.prober.probe(ingress, big_name, RRType.TXT)
        small = world.prober.probe(ingress, small_name, RRType.A)
        big = world.prober.probe(ingress, big_name, RRType.TXT)
        # The TXT answer needed UDP attempt + TCP handshake + TCP exchange.
        assert big.rtt > small.rtt * 1.5

    def test_wire_fidelity_with_truncation(self):
        from repro.study import SimulatedInternet, WorldConfig

        world = SimulatedInternet(WorldConfig(seed=19, lossy_platforms=False,
                                              wire_fidelity=True))
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        owner = world.cde.unique_name("big")
        world.cde.zone.add_record(big_txt_record(owner))
        result = world.prober.probe(hosted.platform.ingress_ips[0], owner,
                                    RRType.TXT)
        assert result.transaction.response.answers
