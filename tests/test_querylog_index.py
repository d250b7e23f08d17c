"""Indexed query-log lookups must be invisible to callers.

``QueryLog(indexed=True)`` (the default) answers every query through its
incremental by-qname / by-suffix indexes; ``indexed=False`` preserves the
original full-scan implementation.  These tests drive both modes with the
same randomized entry stream and require identical answers for every
filter combination — plus regression coverage for ``count`` forwarding
*all* of ``entries``'s filters (``src_ip`` and ``predicate`` used to be
silently dropped), and for :meth:`QueryLog.forget`: afterwards the log
answers exactly like a fresh one.

The qnames share parents (``record`` resolves each parent's suffix
buckets once and must drop that memo on ``forget``/``clear``), include
fresh probe-style children of one parent, and include the root, whose
only suffix bucket is its own.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.name import DnsName, name
from repro.dns.rrtype import RRType
from repro.server.querylog import LogEntry, QueryLog

QNAMES = [name(text) for text in (
    "a.example.", "b.example.", "deep.a.example.", "deeper.deep.a.example.",
    "other.test.", "_dmarc.b.example.", "example.", ".",
    "x-1.cache.example.", "x-2.cache.example.", "x-3.cache.example.",
)]
QTYPES = [RRType.A, RRType.TXT, RRType.MX]
SOURCES = ["10.0.0.1", "10.0.0.2", "192.0.2.9"]


def _random_entries(count: int, seed: int = 42,
                    monotonic: bool = True) -> list[LogEntry]:
    rng = random.Random(seed)
    entries = []
    clock = 0.0
    for index in range(count):
        clock = clock + rng.random() if monotonic else rng.random() * count
        entries.append(LogEntry(
            timestamp=clock,
            src_ip=rng.choice(SOURCES),
            qname=rng.choice(QNAMES),
            qtype=rng.choice(QTYPES),
            msg_id=rng.randrange(4),
        ))
    return entries


def _pair(count: int = 200, **kwargs) -> tuple[QueryLog, QueryLog]:
    indexed, scan = QueryLog(indexed=True), QueryLog(indexed=False)
    for entry in _random_entries(count, **kwargs):
        indexed.record(entry)
        scan.record(entry)
    return indexed, scan


MID_TS = 50.0


class TestIndexedMatchesFullScan:
    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(qname=QNAMES[0]),
        dict(qname=QNAMES[2], qtype=RRType.A),
        dict(qname=QNAMES[0], src_ip=SOURCES[1]),
        dict(qname=QNAMES[1], since=MID_TS),
        dict(since=MID_TS),
        dict(qtype=RRType.TXT, src_ip=SOURCES[0]),
        dict(qname=QNAMES[3], qtype=RRType.MX, src_ip=SOURCES[2],
             since=MID_TS),
        dict(qname=name("never-queried.example.")),
    ])
    def test_entries_and_count(self, kwargs):
        indexed, scan = _pair()
        assert indexed.entries(**kwargs) == scan.entries(**kwargs)
        assert indexed.count(**kwargs) == scan.count(**kwargs)

    def test_entries_with_predicate(self):
        indexed, scan = _pair()
        predicate = lambda entry: entry.msg_id % 2 == 0  # noqa: E731
        for kwargs in (dict(predicate=predicate),
                       dict(qname=QNAMES[0], predicate=predicate),
                       dict(since=MID_TS, predicate=predicate)):
            assert indexed.entries(**kwargs) == scan.entries(**kwargs)

    @pytest.mark.parametrize("suffix", [
        name("example."), name("a.example."), name("deep.a.example."),
        name("cache.example."), name("nowhere.test."), DnsName.root(),
    ])
    @pytest.mark.parametrize("since", [None, MID_TS])
    def test_entries_under_and_count_under(self, suffix, since):
        indexed, scan = _pair()
        assert indexed.entries_under(suffix, since=since) == \
            scan.entries_under(suffix, since=since)
        for dedupe in (True, False):
            assert indexed.count_under(suffix, since=since,
                                       dedupe=dedupe) == \
                scan.count_under(suffix, since=since, dedupe=dedupe)

    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("since", [None, MID_TS])
    def test_entries_for_any(self, under, since):
        indexed, scan = _pair()
        targets = [QNAMES[0], QNAMES[1], name("missing.example.")]
        assert indexed.entries_for_any(targets, since=since, under=under) == \
            scan.entries_for_any(targets, since=since, under=under)

    def test_sources(self):
        indexed, scan = _pair()
        for kwargs in (dict(), dict(qname=QNAMES[0]),
                       dict(suffix=name("example.")),
                       dict(suffix=name("a.example."), qname=QNAMES[2]),
                       dict(qname=QNAMES[1], since=MID_TS)):
            assert indexed.sources(**kwargs) == scan.sources(**kwargs)

    def test_count_transactions(self):
        indexed, scan = _pair()
        for kwargs in (dict(), dict(qname=QNAMES[0]),
                       dict(qtype=RRType.A, since=MID_TS)):
            assert indexed.count_transactions(**kwargs) == \
                scan.count_transactions(**kwargs)

    def test_out_of_order_timestamps_fall_back_correctly(self):
        indexed, scan = _pair(monotonic=False)
        assert not indexed._monotonic
        mid = 100.0
        assert indexed.entries(since=mid) == scan.entries(since=mid)
        assert indexed.entries(qname=QNAMES[0], since=mid) == \
            scan.entries(qname=QNAMES[0], since=mid)
        assert indexed.entries_under(name("example."), since=mid) == \
            scan.entries_under(name("example."), since=mid)


class TestCountForwardsAllFilters:
    """Regression: ``count`` used to ignore ``src_ip`` and ``predicate``."""

    def test_src_ip_filter_is_applied(self):
        log = QueryLog()
        for entry in _random_entries(60):
            log.record(entry)
        total = log.count()
        per_source = [log.count(src_ip=src) for src in SOURCES]
        assert all(n < total for n in per_source)
        assert sum(per_source) == total

    def test_predicate_filter_is_applied(self):
        log = QueryLog()
        for entry in _random_entries(60):
            log.record(entry)
        odd = log.count(predicate=lambda entry: entry.msg_id % 2 == 1)
        assert 0 < odd < log.count()
        assert odd == len([e for e in log if e.msg_id % 2 == 1])

    def test_combined_filters(self):
        log = QueryLog()
        for entry in _random_entries(120):
            log.record(entry)
        expected = len([
            e for e in log
            if e.qname == QNAMES[0] and e.qtype == RRType.A
            and e.src_ip == SOURCES[0] and e.timestamp >= MID_TS
        ])
        assert log.count(qname=QNAMES[0], qtype=RRType.A,
                         src_ip=SOURCES[0], since=MID_TS) == expected


class TestLifecycle:
    def test_clear_resets_indexes(self):
        log = QueryLog()
        for entry in _random_entries(30):
            log.record(entry)
        log.mark("checkpoint")
        log.clear()
        assert len(log) == 0
        assert log.entries(qname=QNAMES[0]) == []
        assert log.entries_under(name("example.")) == []
        assert log.since_mark("checkpoint") == []
        log.record(LogEntry(timestamp=1.0, src_ip="10.9.9.9",
                            qname=QNAMES[0], qtype=RRType.A))
        assert log.count(qname=QNAMES[0]) == 1
        assert log.count_under(name("example.")) == 1
        assert log.count_under(DnsName.root()) == 1

    def test_marks_unaffected_by_indexing(self):
        indexed, scan = _pair(count=40)
        indexed.mark("m")
        scan.mark("m")
        extra = _random_entries(10, seed=7)
        for entry in extra:
            entry = LogEntry(timestamp=entry.timestamp + 1000.0,
                             src_ip=entry.src_ip, qname=entry.qname,
                             qtype=entry.qtype, msg_id=entry.msg_id)
            indexed.record(entry)
            scan.record(entry)
        assert indexed.since_mark("m") == scan.since_mark("m")
        assert len(indexed.since_mark("m")) == 10


class TestForget:
    @given(before=st.integers(0, 60), after=st.integers(0, 60),
           seed=st.integers(0, 2**16), indexed=st.booleans(),
           cut=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_answers_like_a_fresh_log(self, before, after, seed, indexed,
                                      cut):
        old = _random_entries(before, seed=seed)
        offset = old[-1].timestamp if old else 0.0
        new = [LogEntry(timestamp=entry.timestamp + offset,
                        src_ip=entry.src_ip, qname=entry.qname,
                        qtype=entry.qtype, msg_id=entry.msg_id)
               for entry in _random_entries(after, seed=seed + 1)]
        log, fresh = QueryLog(indexed=indexed), QueryLog(indexed=indexed)
        for entry in old:
            log.record(entry)
        log.mark("m")
        log.forget()
        for entry in new:
            log.record(entry)
            fresh.record(entry)

        assert log.total_recorded == before + after
        assert len(log) == after and list(log) == new
        since = offset + cut * (new[-1].timestamp - offset) if new else None
        for qname in [None] + QNAMES:
            assert log.count(qname=qname, since=since) == \
                fresh.count(qname=qname, since=since)
            assert log.count_transactions(qname=qname, since=since) == \
                fresh.count_transactions(qname=qname, since=since)
        for suffix in (name("example."), name("a.example."),
                       name("cache.example."), name(".")):
            assert log.count_under(suffix, since=since) == \
                fresh.count_under(suffix, since=since)
        for under in (False, True):
            assert log.entries_for_any(QNAMES[:3], since=since,
                                       under=under) == \
                fresh.entries_for_any(QNAMES[:3], since=since, under=under)
        assert log.sources(suffix=name("example."), since=since) == \
            fresh.sources(suffix=name("example."), since=since)
        assert log.since_mark("m") == new
