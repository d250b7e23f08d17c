"""Shared machinery for the figure/table regeneration benches.

Every bench regenerates one artifact of the paper's evaluation section and
prints the same rows/series the paper reports (measured next to the paper's
values where the paper states them).  Benches run their workload exactly
once inside ``benchmark.pedantic`` — the interesting output is the table,
the timing is a bonus.
"""

from __future__ import annotations

import pytest

from repro.study import CensusResult, MeasurementBudget, WorldConfig, run_census

#: One shared budget keeps all population benches comparable and fast.
BENCH_BUDGET = MeasurementBudget(
    confidence=0.95,
    max_enumeration_queries=320,
    egress_probe_factor=3.0,
    min_egress_probes=16,
    max_egress_probes=192,
)

#: Population sizes for the figure benches: large enough for the shapes,
#: small enough to finish in seconds.
BENCH_POPULATION_SIZES = {
    "open-resolvers": 70,
    "email-servers": 40,
    "ad-network": 40,
}

#: Caps on the generated tails so a single giant platform does not dominate
#: the run time; the distribution body is untouched.
BENCH_CAPS = {
    "open-resolvers": dict(max_ingress=600, max_caches=24, max_egress=40),
    "email-servers": dict(max_ingress=12, max_caches=12, max_egress=60),
    "ad-network": dict(max_ingress=16, max_caches=10, max_egress=40),
}


def pytest_addoption(parser):
    parser.addoption(
        "--fail-on-fallback", action="store_true", default=False,
        help="fail any engine bench leg that served direct probes through "
             "the structured fallback instead of the fused fast path — a "
             "desynced corridor runs ~4x slower while still producing "
             "correct rows, so it should fail loudly, not quietly",
    )


@pytest.fixture
def fail_on_fallback(request):
    return bool(request.config.getoption("--fail-on-fallback"))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer and return it."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def bench_census(specs, seed: int) -> CensusResult:
    """Measure ``specs`` the way ``regenerate_all`` does: one streamed census.

    The shard worlds derive from ``seed`` and run without the per-country
    loss models, so the figure anchors see the methodology, not packet loss.
    """
    return run_census(specs=specs, seed=seed,
                      config=WorldConfig(seed=seed, lossy_platforms=False),
                      budget=BENCH_BUDGET, stream=True)


@pytest.fixture
def bench_budget():
    return BENCH_BUDGET
