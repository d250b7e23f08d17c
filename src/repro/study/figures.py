"""Programmatic builders for every figure/table of the paper's evaluation.

Each builder runs the relevant collection + measurement pipeline and
returns plain data (series, pairs, breakdowns) ready for rendering by
:mod:`repro.study.report`, for CSV export, or for custom plotting.  The
benches and the CLI both sit on top of these, so the regeneration logic
lives in exactly one place.  Every population is measured by one
:func:`~repro.study.census.run_census`, the same path a census takes, so
the figures read the census's own online aggregates.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from typing import Optional

from ..net.perf import PerfCounters
from .census import CensusAggregates, run_census
from .collection import SmtpCollectionResult, run_smtp_collection
from .internet import SimulatedInternet
from .measurement import MeasurementBudget
from .operators import OPERATOR_TABLES, draw_operator, top_n_table
from .parallel import WorkerSpec
from .population import POPULATIONS, generate_population
from .stats import RatioBreakdown

#: The paper's dataset sizes: 1,739 open resolvers, the top-1K enterprise
#: SMTP servers, and 12K ad-network clients at the 1:50 completion rate.
DEFAULT_SIZES = {"open-resolvers": 1739, "email-servers": 1000,
                 "ad-network": 240}
DEFAULT_CAPS = {
    "open-resolvers": dict(max_ingress=200, max_caches=16, max_egress=30),
    "email-servers": dict(max_ingress=10, max_caches=10, max_egress=40),
    "ad-network": dict(max_ingress=12, max_caches=8, max_egress=30),
}


@dataclass
class FigureData:
    """All regenerated evaluation artifacts from one measurement run."""

    aggregates: dict[str, CensusAggregates]
    table1: Optional[SmtpCollectionResult] = None
    operator_tables: dict[str, list[tuple[str, float]]] = field(
        default_factory=dict)
    #: Performance counters of the measurement phase (wall time, traffic,
    #: queries/sec), merged over the populations' censuses.
    perf: Optional[PerfCounters] = None

    # -- figure series ---------------------------------------------------

    def egress_series(self) -> dict[str, list[float]]:
        """Figure 3 input: measured egress counts per population."""
        return {population: aggregates.egress_cdf.values()
                for population, aggregates in self.aggregates.items()}

    def cache_series(self) -> dict[str, list[float]]:
        """Figure 4 input: measured cache counts per population."""
        return {population: aggregates.cache_cdf.values()
                for population, aggregates in self.aggregates.items()}

    def bubbles(self, population: str) -> dict[tuple[int, int], int]:
        """Figures 5/7/8 input for one population."""
        return self.aggregates[population].bubbles.counts()

    def ratio_breakdowns(self) -> dict[str, RatioBreakdown]:
        """Figure 6 input."""
        return {population: aggregates.ratios.breakdown()
                for population, aggregates in self.aggregates.items()}


def regenerate_all(world: SimulatedInternet,
                   sizes: Optional[dict[str, int]] = None,
                   caps: Optional[dict[str, dict]] = None,
                   budget: Optional[MeasurementBudget] = None,
                   table1_domains: int = 150,
                   operator_draws: int = 1000,
                   seed: int = 0,
                   workers: WorkerSpec = 0,
                   out_dir: Optional[str] = None) -> FigureData:
    """One pass that regenerates every table and figure's data.

    Each population is one streamed census under ``world.config``: its
    shards run in independently seeded worlds (seed derivation
    ``derive_seed(seed, "shard/<i>")``), so the rows are deterministic for
    a given seed and identical for every ``workers`` setting.  With
    ``out_dir``, each population's rows are exported to
    ``out_dir/<population>/`` as the census's chunked NDJSON.  ``world``
    itself hosts only the Table I collection and the operator draws.
    """
    sizes = sizes or DEFAULT_SIZES
    caps = caps or DEFAULT_CAPS

    aggregates = {}
    perf = PerfCounters()
    for population in POPULATIONS:
        specs = generate_population(population, sizes[population], seed=seed,
                                    **caps.get(population, {}))
        census = run_census(
            specs=specs, population=population, seed=seed,
            config=world.config, budget=budget, workers=workers, stream=True,
            out_dir=(None if out_dir is None
                     else os.path.join(out_dir, population)))
        aggregates[population] = census.aggregates
        assert census.perf is not None
        perf.merge(census.perf)

    table1_specs = generate_population(
        "email-servers", table1_domains, seed=seed + 1,
        max_ingress=3, max_caches=3, max_egress=5)
    table1 = run_smtp_collection(world, table1_specs)

    operator_tables = {}
    for population in OPERATOR_TABLES:
        rng = world.rng_factory.stream(f"figures/operators/{population}")
        labels = [draw_operator(population, rng)
                  for _ in range(operator_draws)]
        operator_tables[population] = top_n_table(labels, n=10)

    return FigureData(aggregates=aggregates, table1=table1,
                      operator_tables=operator_tables, perf=perf)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def table1_csv(data: FigureData) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["query_type", "fraction"])
    if data.table1 is not None:
        for label, fraction in data.table1.table1_rows():
            writer.writerow([label, f"{fraction:.4f}"])
    return buffer.getvalue()
