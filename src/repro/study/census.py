"""Streaming bounded-memory census driver (ROADMAP open item 2).

The paper's census enumerates caches across hundreds of thousands of open
resolvers; reaching that scale in the reproduction means no layer may hold
the whole census.  :func:`run_census` wires the pieces end to end:

* **rows** stream from the sharded measurement engine
  (:func:`~repro.study.parallel.stream_parallel_measurement`; with
  ``stream`` off the result also keeps them as a list), or from the
  synthetic :func:`simulate_census_rows` source the scale bench uses;
* **aggregates** fold online into :class:`CensusAggregates` — accuracy,
  CDFs, bubbles, ratio categories, resilience, operator mix and the
  coupon-collector budget ledger — every sum integer-valued, so the fold
  is associative and the streamed aggregates equal the in-memory ones;
* **export** goes through :class:`~repro.study.export.CensusWriter`:
  chunked canonical NDJSON with a manifest, resumable from the last
  complete chunk (the deterministic engine replays the stream and the
  writer skips rows already durable).

Determinism contract: for a given ``(specs, base_seed, n_shards)`` the
NDJSON bytes and the aggregate report are identical across ``stream`` on
or off, any worker count, and an interrupt + ``resume`` — the streaming
equivalence test suite pins all three.
"""

from __future__ import annotations

import random
import resource
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from ..core.analysis import CouponBudgetLedger, queries_for_confidence
from ..net.perf import PerfCounters
from ..net.rng import derive_seed
from .accuracy import AccuracyReport
from .export import DEFAULT_CHUNK_ROWS, CensusWriter
from .internet import WorldConfig
from .measurement import MeasurementBudget, PlatformMeasurement
from .parallel import WorkerSpec, stream_parallel_measurement
from .population import PlatformSpec, PopulationGenerator, iter_population
from .stats import (
    BubbleAccumulator,
    CdfAccumulator,
    RatioAccumulator,
    ResilienceAccumulator,
)


class MemoryBudgetExceeded(RuntimeError):
    """Raised when a census run crosses its ``--max-rss-mb`` guard."""


def peak_rss_mb() -> float:
    """Peak RSS in MiB of the largest process: this one or a reaped child.

    ``RUSAGE_CHILDREN`` reports the largest reaped descendant, so pool
    workers count once their pool has shut down.  It is a maximum, not a
    sum (Linux ``ru_maxrss`` is KiB).
    """
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


@dataclass
class CensusAggregates:
    """Every census-level aggregate, folded one row at a time.

    All members merge associatively on integer-valued sums, so chunked or
    sharded partial folds combine into exactly the aggregates a single
    in-memory pass would produce.
    """

    accuracy: AccuracyReport = field(default_factory=AccuracyReport)
    cache_cdf: CdfAccumulator = field(default_factory=CdfAccumulator)
    egress_cdf: CdfAccumulator = field(default_factory=CdfAccumulator)
    bubbles: BubbleAccumulator = field(default_factory=BubbleAccumulator)
    ratios: RatioAccumulator = field(default_factory=RatioAccumulator)
    resilience: ResilienceAccumulator = field(
        default_factory=ResilienceAccumulator)
    ledger: CouponBudgetLedger = field(default_factory=CouponBudgetLedger)
    operators: Counter[str] = field(default_factory=Counter)
    rows: int = 0

    def add_row(self, row: PlatformMeasurement,
                confidence: float = 0.99) -> None:
        self.rows += 1
        self.accuracy.add_row(row)
        self.cache_cdf.add(row.measured_caches)
        self.egress_cdf.add(row.measured_egress)
        self.bubbles.add(row.spec.n_ingress, row.measured_caches)
        self.ratios.add(row.spec.n_ingress, row.measured_caches)
        self.resilience.add(row)
        self.ledger.charge(row.true_caches, confidence)
        self.ledger.spend(row.queries_used)
        self.operators[row.spec.operator] += 1

    def merge(self, other: "CensusAggregates") -> None:
        self.rows += other.rows
        self.accuracy.merge(other.accuracy)
        self.cache_cdf.merge(other.cache_cdf)
        self.egress_cdf.merge(other.egress_cdf)
        self.bubbles.merge(other.bubbles)
        self.ratios.merge(other.ratios)
        self.resilience.merge(other.resilience)
        self.ledger.merge(other.ledger)
        self.operators.update(other.operators)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe aggregate report (canonical, order-independent)."""
        summary = self.resilience.summary()
        return {
            "rows": self.rows,
            "accuracy": [list(row) for row in self.accuracy.rows()],
            "cache_cdf": self.cache_cdf.points(),
            "egress_cdf": self.egress_cdf.points(),
            "bubbles": {f"{x}x{y}": count for (x, y), count
                        in sorted(self.bubbles.counts().items())},
            "ratios": self.ratios.breakdown().as_dict(),
            "resilience": {
                "platforms": summary.platforms,
                "degraded_platforms": summary.degraded_platforms,
                "attempts": summary.attempts,
                "retries": summary.retries,
                "gave_up": summary.gave_up,
                "fault_exposure": summary.fault_exposure,
            },
            "budget_ledger": self.ledger.to_dict(),
            "operators": {name: self.operators[name]
                          for name in sorted(self.operators)},
        }


def iter_specs(population: str, count: int, seed: int = 0,
               **caps: Optional[int]) -> Iterator[PlatformSpec]:
    """Stream ``count`` specs without materializing the population list."""
    return iter_population(population, count, seed=seed, **caps)


#: Simulated-measurement noise model: fraction of platforms whose census
#: undercounts by one cache (coupon-collector misses concentrate there).
_SIM_MISS_RATE = 0.04


def simulate_census_rows(count: int, seed: int = 0,
                         population: str = "open-resolvers",
                         **caps: Optional[int]
                         ) -> Iterator[PlatformMeasurement]:
    """Deterministic synthetic measurement rows at census scale.

    Drives the *real* population generator for specs and a seeded noise
    stream for measurement outcomes, but builds no worlds — so millions of
    rows stream through the fold/export pipeline in seconds.  This is the
    scale bench's row source; the shape (occasional one-cache undercount,
    coupon-collector-sized query spend) mirrors what the engine produces.
    """
    generator = PopulationGenerator(population, seed=seed, **caps)
    noise = random.Random(derive_seed(seed, "census-sim"))
    for _ in range(count):
        spec = generator.draw()
        missed = noise.random() < _SIM_MISS_RATE and spec.n_caches > 1
        measured = spec.n_caches - 1 if missed else spec.n_caches
        budget = queries_for_confidence(max(spec.n_caches, 2), 0.99)
        queries = noise.randint(max(1, budget // 2), budget)
        egress_seen = min(spec.n_egress,
                          max(1, noise.randint(spec.n_egress - 1,
                                               spec.n_egress)))
        yield PlatformMeasurement(
            spec=spec,
            measured_caches=measured,
            measured_egress=egress_seen,
            queries_used=queries,
            technique="direct",
        )


@dataclass
class CensusResult:
    """What one census run produced."""

    aggregates: CensusAggregates
    rows: Optional[list[PlatformMeasurement]] = None   # kept unless stream
    perf: Optional[PerfCounters] = None
    out_dir: Optional[str] = None
    written_rows: int = 0
    skipped_rows: int = 0          # resume: rows already durable on disk
    peak_rss_mb: float = 0.0


def _fold_and_write(rows: Iterable[PlatformMeasurement],
                    aggregates: CensusAggregates,
                    confidence: float,
                    writer: Optional[CensusWriter],
                    keep: Optional[list[PlatformMeasurement]],
                    max_rss_mb: Optional[float]) -> int:
    """The one census inner loop: fold, export, guard memory."""
    written = 0
    chunks_seen = len(writer.chunks) if writer is not None else 0
    for row in rows:
        aggregates.add_row(row, confidence)
        if keep is not None:
            keep.append(row)
        if writer is not None:
            if writer.write_row(row):
                written += 1
            if len(writer.chunks) != chunks_seen:
                chunks_seen = len(writer.chunks)
                aggregates.ledger.close_chunk()
                if max_rss_mb is not None and peak_rss_mb() > max_rss_mb:
                    raise MemoryBudgetExceeded(
                        f"peak RSS {peak_rss_mb():.1f} MiB exceeds the "
                        f"--max-rss-mb budget of {max_rss_mb:.1f} MiB "
                        f"(checkpoint kept: resume with --resume)")
    return written


def run_census(specs: Optional[list[PlatformSpec]] = None,
               population: str = "open-resolvers",
               count: int = 0,
               seed: int = 0,
               workers: WorkerSpec = 0,
               n_shards: Optional[int] = None,
               config: Optional[WorldConfig] = None,
               budget: Optional[MeasurementBudget] = None,
               stream: bool = False,
               simulate: bool = False,
               out_dir: Optional[str] = None,
               chunk_size: int = DEFAULT_CHUNK_ROWS,
               resume: bool = False,
               max_rss_mb: Optional[float] = None,
               force_pool: bool = False,
               spec_caps: Optional[dict[str, Optional[int]]] = None
               ) -> CensusResult:
    """Run one census end to end; see the module docstring for the modes.

    ``specs`` wins over ``(population, count)``.  ``simulate=True`` swaps
    the engine for :func:`simulate_census_rows` (no worlds — scale runs).
    ``resume=True`` requires ``out_dir`` with an interrupted manifest; the
    deterministic stream is replayed and already-durable rows are skipped
    by the writer, reproducing the uninterrupted bytes exactly.
    """
    caps = dict(spec_caps or {})
    budget = budget or MeasurementBudget()
    confidence = budget.confidence
    if resume and out_dir is None:
        raise ValueError("resume requires out_dir")

    writer: Optional[CensusWriter] = None
    if out_dir is not None:
        meta = {"seed": seed, "population": population,
                "count": count if specs is None else len(specs),
                "simulate": simulate}
        writer = CensusWriter(out_dir, chunk_size=chunk_size, meta=meta,
                              resume=resume)

    aggregates = CensusAggregates()
    keep: Optional[list[PlatformMeasurement]] = None
    perf: Optional[PerfCounters] = None
    try:
        if simulate:
            rows_iter: Iterable[PlatformMeasurement] = simulate_census_rows(
                count, seed=seed, population=population, **caps)
            written = _fold_and_write(rows_iter, aggregates, confidence,
                                      writer, keep, max_rss_mb)
        else:
            if specs is None:
                specs = list(iter_specs(population, count, seed=seed, **caps))
            streamed = stream_parallel_measurement(
                specs, base_seed=seed, workers=workers, n_shards=n_shards,
                config=config, budget=budget, force_pool=force_pool)
            keep = None if stream else []
            written = _fold_and_write(streamed, aggregates, confidence,
                                      writer, keep, max_rss_mb)
            perf = streamed.perf
        if writer is not None:
            writer.close()
            # The close may have flushed one final short chunk; keep the
            # ledger's chunk count mirroring the durable chunk files.
            while aggregates.ledger.chunks < len(writer.chunks):
                aggregates.ledger.close_chunk()
    except MemoryBudgetExceeded:
        # The writer's durable chunks stay behind as the resume checkpoint.
        raise
    return CensusResult(
        aggregates=aggregates,
        rows=keep,
        perf=perf,
        out_dir=out_dir,
        written_rows=written,
        skipped_rows=writer.skipped if writer is not None else 0,
        peak_rss_mb=peak_rss_mb(),
    )
