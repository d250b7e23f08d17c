"""Tests for frontend query collapsing and probe pacing."""

import pytest

from repro.core import enumerate_direct, queries_for_confidence
from repro.dns import DnsMessage, RCode, RRType, txt_record
from repro.dns.wire import message_wire_size


def dedup_platform(world, n_caches=4, window=2.0):
    hosted = world.add_platform(n_ingress=1, n_caches=n_caches, n_egress=1)
    hosted.platform.config.frontend_dedup_window = window
    return hosted


class TestFrontendDedup:
    def test_collapsed_queries_counted(self, world):
        hosted = dedup_platform(world)
        ingress = hosted.platform.ingress_ips[0]
        probe = world.cde.unique_name("fd")
        for _ in range(5):
            world.prober.probe(ingress, probe)
        assert hosted.platform.stats.frontend_collapsed >= 3

    def test_collapsed_response_still_answers(self, world):
        hosted = dedup_platform(world)
        ingress = hosted.platform.ingress_ips[0]
        probe = world.cde.unique_name("fd")
        first = world.prober.probe(ingress, probe)
        second = world.prober.probe(ingress, probe)
        assert second.delivered
        assert second.transaction.response.rcode == RCode.NOERROR
        assert second.transaction.response.answers
        assert (second.transaction.response.answers[0].rdata ==
                first.transaction.response.answers[0].rdata)

    def test_window_expires(self, world):
        hosted = dedup_platform(world, window=1.0)
        ingress = hosted.platform.ingress_ips[0]
        probe = world.cde.unique_name("fd")
        world.prober.probe(ingress, probe)
        world.clock.advance(1.5)
        collapsed_before = hosted.platform.stats.frontend_collapsed
        world.prober.probe(ingress, probe)
        assert hosted.platform.stats.frontend_collapsed == collapsed_before

    def test_different_questions_not_collapsed(self, world):
        hosted = dedup_platform(world)
        ingress = hosted.platform.ingress_ips[0]
        world.prober.probe(ingress, world.cde.unique_name("fd"))
        world.prober.probe(ingress, world.cde.unique_name("fd"))
        assert hosted.platform.stats.frontend_collapsed == 0

    def test_different_qtypes_not_collapsed(self, world):
        hosted = dedup_platform(world)
        ingress = hosted.platform.ingress_ips[0]
        probe = world.cde.unique_name("fd")
        world.prober.probe(ingress, probe, RRType.A)
        world.prober.probe(ingress, probe, RRType.TXT)
        assert hosted.platform.stats.frontend_collapsed == 0


class TestCollapsedResponsesMatchResolvedOnes:
    """A collapsed answer is built for the client that asked, exactly
    like a resolved one: its EDNS size and its truncation."""

    CLIENT = "198.51.100.7"

    def ask(self, hosted, qname, qtype=RRType.A, edns=None, via_tcp=False):
        query = DnsMessage.make_query(qname, qtype, msg_id=1,
                                      edns_payload_size=edns)
        query.via_tcp = via_tcp
        return hosted.platform.resolve_for_client(query, self.CLIENT)

    def test_collapsed_answer_negotiates_edns(self, world):
        hosted = dedup_platform(world)
        hosted.platform.config.edns_payload_size = 1232
        probe = world.cde.unique_name("fd")
        first = self.ask(hosted, probe, edns=4096)
        again = self.ask(hosted, probe, edns=4096)
        plain = self.ask(hosted, probe)
        assert hosted.platform.stats.frontend_collapsed == 2
        assert first.edns_payload_size == 1232
        assert again.edns_payload_size == 1232
        assert plain.edns_payload_size is None
        assert again.answers == first.answers == plain.answers

    def test_collapsed_answer_truncates_for_small_udp_client(self, world):
        hosted = dedup_platform(world)
        owner = world.cde.unique_name("big")
        chunks = tuple("x" * 250 for _ in range(3))
        world.cde.zone.add_record(txt_record(owner, *chunks))
        full = self.ask(hosted, owner, RRType.TXT, via_tcp=True)
        udp = self.ask(hosted, owner, RRType.TXT)
        large = self.ask(hosted, owner, RRType.TXT, edns=4096)
        tcp = self.ask(hosted, owner, RRType.TXT, via_tcp=True)
        assert hosted.platform.stats.frontend_collapsed == 3
        assert full.answers and not full.truncated
        assert udp.truncated and not udp.answers
        assert message_wire_size(udp) <= 512
        assert not large.truncated and large.answers == full.answers
        assert not tcp.truncated and tcp.answers == full.answers

    def test_truncated_first_answer_is_still_collapsed_whole(self, world):
        hosted = dedup_platform(world)
        owner = world.cde.unique_name("big")
        chunks = tuple("x" * 250 for _ in range(3))
        world.cde.zone.add_record(txt_record(owner, *chunks))
        udp = self.ask(hosted, owner, RRType.TXT)
        tcp = self.ask(hosted, owner, RRType.TXT, via_tcp=True)
        assert hosted.platform.stats.frontend_collapsed == 1
        assert udp.truncated and not udp.answers
        assert not tcp.truncated and tcp.answers


class TestPacingCountersDedup:
    def test_rapid_probes_undercount(self, world):
        """The documented failure mode: rapid identical probes collapse at
        the frontend and the census sees one cache."""
        hosted = dedup_platform(world, n_caches=4, window=2.0)
        ingress = hosted.platform.ingress_ips[0]
        budget = queries_for_confidence(4, 0.999)
        result = enumerate_direct(world.cde, world.prober, ingress, q=budget)
        assert result.arrivals == 1

    def test_paced_probes_count_exactly(self, world):
        hosted = dedup_platform(world, n_caches=4, window=2.0)
        ingress = hosted.platform.ingress_ips[0]
        budget = queries_for_confidence(4, 0.999)
        result = enumerate_direct(world.cde, world.prober, ingress, q=budget,
                                  pace=2.5)
        assert result.arrivals == 4

    def test_pace_within_window_still_undercounts(self, world):
        hosted = dedup_platform(world, n_caches=4, window=5.0)
        ingress = hosted.platform.ingress_ips[0]
        result = enumerate_direct(world.cde, world.prober, ingress, q=20,
                                  pace=1.0)
        assert result.arrivals < 4

    def test_negative_pace_rejected(self, world, single_cache_platform):
        with pytest.raises(ValueError):
            enumerate_direct(world.cde, world.prober,
                             single_cache_platform.platform.ingress_ips[0],
                             q=4, pace=-1.0)

    def test_pacing_neutral_without_dedup(self, world):
        hosted = world.add_platform(n_ingress=1, n_caches=3, n_egress=1)
        ingress = hosted.platform.ingress_ips[0]
        budget = queries_for_confidence(3, 0.999)
        paced = enumerate_direct(world.cde, world.prober, ingress, q=budget,
                                 pace=1.0)
        assert paced.arrivals == 3
