"""Performance counters for measurement runs.

The ROADMAP's north star is a system that "runs as fast as the hardware
allows"; you cannot steer toward that without numbers.  :class:`PerfCounters`
aggregates, per measurement run, the network-level traffic counters
(:class:`~repro.net.network.NetworkStats`), prober query counts, platform
counts and *real* wall-clock time — and derives the throughput figures
(queries/second, platforms/second) that the study reports, the JSON export
and the scaling benches surface.

The parallel engine contributes one :class:`ShardPerf` per shard; the
aggregate is their merge plus the orchestration wall time.  Note the
deliberate asymmetry: *measured results* are deterministic and seed-driven,
*performance counters* are not (they reflect the machine the run happened
on) — so perf data rides alongside measurements instead of inside them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional

from .network import NetworkStats


@dataclass
class ShardPerf:
    """One shard's performance sample (picklable across worker processes)."""

    shard_index: int
    platforms: int
    wall_seconds: float
    queries_sent: int
    stats: NetworkStats = field(default_factory=NetworkStats)
    #: Direct probes served by the engine's fused corridor vs the generic
    #: object-per-message path (zero for shards run outside the engine).
    fused_probes: int = 0
    fallback_probes: int = 0

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.queries_sent / self.wall_seconds


@dataclass
class PerfCounters:
    """Aggregated performance view of one measurement run."""

    wall_seconds: float = 0.0
    queries_sent: int = 0
    platforms: int = 0
    workers: int = 0
    stats: NetworkStats = field(default_factory=NetworkStats)
    shards: list[ShardPerf] = field(default_factory=list)
    fused_probes: int = 0
    fallback_probes: int = 0

    # -- accumulation -----------------------------------------------------

    def merge_stats(self, stats: NetworkStats) -> None:
        self.stats.messages_sent += stats.messages_sent
        self.stats.messages_delivered += stats.messages_delivered
        self.stats.requests_lost += stats.requests_lost
        self.stats.responses_lost += stats.responses_lost
        self.stats.timeouts += stats.timeouts
        self.stats.retransmissions += stats.retransmissions
        self.stats.faults_injected += stats.faults_injected

    def add_shard(self, shard: ShardPerf) -> None:
        self.shards.append(shard)
        self.queries_sent += shard.queries_sent
        self.platforms += shard.platforms
        self.fused_probes += shard.fused_probes
        self.fallback_probes += shard.fallback_probes
        self.merge_stats(shard.stats)

    def merge(self, other: "PerfCounters") -> None:
        """Fold in the counters of a run that ran after this one."""
        self.wall_seconds += other.wall_seconds
        self.workers = max(self.workers, other.workers)
        for shard in other.shards:
            self.add_shard(shard)

    # -- derived throughput ----------------------------------------------

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.queries_sent / self.wall_seconds

    @property
    def platforms_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.platforms / self.wall_seconds

    @property
    def busy_seconds(self) -> float:
        """Summed shard work time (> wall_seconds when workers overlap)."""
        return sum(shard.wall_seconds for shard in self.shards)

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "queries_sent": self.queries_sent,
            "platforms": self.platforms,
            "workers": self.workers,
            "queries_per_second": self.queries_per_second,
            "platforms_per_second": self.platforms_per_second,
            "engine": {
                "fused_probes": self.fused_probes,
                "fallback_probes": self.fallback_probes,
            },
            "network": {
                "messages_sent": self.stats.messages_sent,
                "messages_delivered": self.stats.messages_delivered,
                "requests_lost": self.stats.requests_lost,
                "responses_lost": self.stats.responses_lost,
                "timeouts": self.stats.timeouts,
                "retransmissions": self.stats.retransmissions,
                "faults_injected": self.stats.faults_injected,
            },
            "shards": [
                {
                    "shard_index": shard.shard_index,
                    "platforms": shard.platforms,
                    "wall_seconds": shard.wall_seconds,
                    "queries_sent": shard.queries_sent,
                    "queries_per_second": shard.queries_per_second,
                    "fused_probes": shard.fused_probes,
                    "fallback_probes": shard.fallback_probes,
                }
                for shard in self.shards
            ],
        }


def snapshot_stats(stats: NetworkStats) -> NetworkStats:
    """An independent copy of ``stats`` (for before/after deltas)."""
    return replace(stats)


def stats_delta(before: NetworkStats, after: NetworkStats) -> NetworkStats:
    return NetworkStats(
        messages_sent=after.messages_sent - before.messages_sent,
        messages_delivered=after.messages_delivered - before.messages_delivered,
        requests_lost=after.requests_lost - before.requests_lost,
        responses_lost=after.responses_lost - before.responses_lost,
        timeouts=after.timeouts - before.timeouts,
        retransmissions=after.retransmissions - before.retransmissions,
        faults_injected=after.faults_injected - before.faults_injected,
    )


@contextmanager
def track(world: Any, perf: Optional[PerfCounters] = None,
          platforms: int = 0) -> Iterator[PerfCounters]:
    """Capture wall time, prober queries and network-stat deltas of a block.

    ``world`` is any object with ``network.stats`` and (optionally) a
    ``prober.queries_sent`` counter — in practice a
    :class:`~repro.study.internet.SimulatedInternet`.  The single-world
    collectors use this to attach perf data to their results; the parallel
    engine builds its counters from shard samples instead.
    """
    counters = perf if perf is not None else PerfCounters()
    stats_before = snapshot_stats(world.network.stats)
    queries_before = getattr(getattr(world, "prober", None),
                             "queries_sent", 0)
    started = time.perf_counter()
    try:
        yield counters
    finally:
        counters.wall_seconds += time.perf_counter() - started
        counters.merge_stats(stats_delta(stats_before, world.network.stats))
        queries_after = getattr(getattr(world, "prober", None),
                                "queries_sent", 0)
        counters.queries_sent += queries_after - queries_before
        counters.platforms += platforms
