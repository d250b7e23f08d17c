"""Property tests: online aggregates are fold-order independent.

The streaming census relies on every aggregate being an exact monoid —
folding rows one at a time, in arbitrary chunks, or merging independent
partial accumulators must all land on the same state (their sums are
integer-valued, so float addition is exact well past any census size).
Hypothesis drives each accumulator with random rows and random chunkings
and requires the three fold shapes to agree, and to match the batch
helpers they shadow.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.analysis import CouponBudgetLedger, queries_for_confidence
from repro.study import (
    AccuracyReport,
    BubbleAccumulator,
    CdfAccumulator,
    RatioAccumulator,
    ResilienceAccumulator,
    TrendAccumulator,
    PlatformMeasurement,
    PlatformSpec,
    accuracy_report,
    bubble_counts,
    cdf_points,
    generate_population,
    median,
    ratio_breakdown,
    resilience_summary,
)
from repro.study.census import CensusAggregates

SELECTORS = ("uniform-random", "sticky-random", "round-robin",
             "least-loaded", "qname-hash", "source-ip-hash")
TECHNIQUES = ("direct", "smtp", "browser")


# ---------------------------------------------------------------------------
# row / chunking strategies
# ---------------------------------------------------------------------------


@st.composite
def measurement_rows(draw, min_size=0, max_size=40):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        spec = PlatformSpec(
            population="open-resolvers", index=index + 1,
            operator=f"op-{rng.randrange(4)}", country="US",
            n_ingress=rng.randint(1, 6), n_caches=rng.randint(1, 8),
            n_egress=rng.randint(1, 12),
            selector_name=rng.choice(SELECTORS),
        )
        degraded = rng.random() < 0.3
        rows.append(PlatformMeasurement(
            spec=spec,
            measured_caches=max(1, spec.n_caches - rng.randrange(2)),
            measured_egress=max(1, spec.n_egress - rng.randrange(2)),
            queries_used=rng.randint(1, 200),
            technique=rng.choice(TECHNIQUES),
            attempts=rng.randint(1, 5) if degraded else 0,
            retries=rng.randrange(3) if degraded else 0,
            gave_up=rng.randrange(2) if degraded else 0,
            fault_exposure={"loss": rng.randint(1, 4)} if degraded else {},
        ))
    return rows


def _chunkings(items, rng):
    """Split ``items`` at random boundaries."""
    chunks = []
    start = 0
    while start < len(items):
        width = rng.randint(1, max(1, len(items) - start))
        chunks.append(items[start:start + width])
        start += width
    return chunks


def _fold_three_ways(rows, make, add, seed):
    """one-at-a-time, random chunks merged, all-at-once merged."""
    one = make()
    for row in rows:
        add(one, row)

    rng = random.Random(seed)
    chunked = make()
    for chunk in _chunkings(rows, rng):
        partial = make()
        for row in chunk:
            add(partial, row)
        chunked.merge(partial)

    bulk = make()
    whole = make()
    for row in rows:
        add(whole, row)
    bulk.merge(whole)
    return one, chunked, bulk


# ---------------------------------------------------------------------------
# accumulator == accumulator across fold shapes, == batch helper
# ---------------------------------------------------------------------------


class TestFoldAssociativity:
    @given(rows=measurement_rows(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_cdf_accumulator(self, rows, seed):
        one, chunked, bulk = _fold_three_ways(
            rows, CdfAccumulator,
            lambda acc, row: acc.add(row.measured_caches), seed)
        assert one.points() == chunked.points() == bulk.points()
        values = [row.measured_caches for row in rows]
        assert one.points() == cdf_points(values)
        if values:
            assert one.median() == median(values)

    @given(rows=measurement_rows(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_bubble_accumulator(self, rows, seed):
        one, chunked, bulk = _fold_three_ways(
            rows, BubbleAccumulator,
            lambda acc, row: acc.add(*row.ip_cache_pair), seed)
        assert one.counts() == chunked.counts() == bulk.counts()
        assert one.counts() == bubble_counts(
            [row.ip_cache_pair for row in rows])

    @given(rows=measurement_rows(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_ratio_accumulator(self, rows, seed):
        one, chunked, bulk = _fold_three_ways(
            rows, RatioAccumulator,
            lambda acc, row: acc.add(*row.ip_cache_pair), seed)
        assert one.breakdown() == chunked.breakdown() == bulk.breakdown()
        assert one.breakdown() == ratio_breakdown(
            [row.ip_cache_pair for row in rows])

    @given(rows=measurement_rows(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_resilience_accumulator(self, rows, seed):
        one, chunked, bulk = _fold_three_ways(
            rows, ResilienceAccumulator,
            lambda acc, row: acc.add(row), seed)
        assert one.summary() == chunked.summary() == bulk.summary()
        assert one.summary() == resilience_summary(rows)

    @given(rows=measurement_rows(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_accuracy_report(self, rows, seed):
        one, chunked, bulk = _fold_three_ways(
            rows, AccuracyReport,
            lambda acc, row: acc.add_row(row), seed)
        assert one.rows() == chunked.rows() == bulk.rows()
        assert one.rows() == accuracy_report(rows).rows()

    @given(rows=measurement_rows(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_trend_accumulator(self, rows, seed):
        def add(acc, row):
            acc.add_platform(row.measured_caches, row.true_caches,
                             row.spec.index % 2 == 0)
        one, chunked, bulk = _fold_three_ways(rows, TrendAccumulator,
                                              add, seed)
        assert one == chunked == bulk

    @given(rows=measurement_rows(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_budget_ledger(self, rows, seed):
        def add(acc, row):
            acc.charge(row.true_caches)
            acc.spend(row.queries_used)
        one, chunked, bulk = _fold_three_ways(rows, CouponBudgetLedger,
                                              add, seed)
        # chunks counts close_chunk() calls, not fold shape — compare the
        # fold-dependent fields only.
        for other in (chunked, bulk):
            assert one.platforms == other.platforms
            assert one.budget_queries == other.budget_queries
            assert one.spent_queries == other.spent_queries
        expected = sum(queries_for_confidence(max(row.true_caches, 2), 0.99)
                       for row in rows)
        assert one.budget_queries == expected

    @given(rows=measurement_rows(), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_census_aggregates_bundle(self, rows, seed):
        one, chunked, bulk = _fold_three_ways(
            rows, CensusAggregates,
            lambda acc, row: acc.add_row(row), seed)
        assert one.to_dict() == chunked.to_dict() == bulk.to_dict()


class TestFoldOnRealPopulation:
    def test_bundle_matches_itself_under_resharding(self):
        """Real generated specs, split as the shard planner would."""
        specs = generate_population("open-resolvers", 24, seed=3,
                                    max_caches=6, max_ingress=4, max_egress=8)
        rows = [PlatformMeasurement(spec=spec,
                                    measured_caches=spec.n_caches,
                                    measured_egress=spec.n_egress,
                                    queries_used=5 * spec.n_caches,
                                    technique="direct")
                for spec in specs]
        whole = CensusAggregates()
        for row in rows:
            whole.add_row(row)
        for n_shards in (2, 3, 5):
            merged = CensusAggregates()
            for shard in range(n_shards):
                partial = CensusAggregates()
                for row in rows[shard::n_shards]:
                    partial.add_row(row)
                merged.merge(partial)
            assert merged.to_dict() == whole.to_dict()
