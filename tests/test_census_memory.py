"""Memory-bound regressions: census memory does not scale with census size.

Two kinds of run, both memory runs only (nothing here is timed):

* A 50k-platform simulated census is folded and exported through the
  full streaming pipeline under ``tracemalloc``; its Python-heap peak must
  stay under a fixed budget and must not grow materially past a 10k
  census's peak.  If someone reintroduces a whole-census list anywhere on
  the row path (engine, fold, export), the 50k peak jumps ~5x and both
  asserts fire.
* A real streamed census (``run_census(stream=True)``) runs in a fresh
  process at two sizes eight times apart, once per population: open
  resolvers through the fused engine, email servers through SMTP bounces
  and ad-network clients through browsers, both indirect populations by
  the CNAME-chain bypass.  The larger census's ``ru_maxrss`` may be at
  most 1.25x the smaller's.  A shard world that kept its measured
  platforms, their caches, RNG streams or query-log entries grows by
  ~80 KiB per open resolver; one that kept the aliases and target each
  indirect platform plants in the CDE zone grows by ~9 KiB per platform,
  and 1,600 capped email servers then peak ~1.5x as high as 200.  Both
  fail this by a wide margin.

The 2k/16k slope tests (all three populations) and the 50k heap test run
only with ``--runslow``; the 200/1,600 slope tests are tier-1.  Indirect
populations are capped at 2 ingress, 2 caches and 4 egress, the caps of
the census-smtp benchmark workload.  The 16k email-server census is a
strict expected failure: it crashes before any memory is compared,
because the SMTP bypass counts retransmitted queries as arrivals and
``estimate_from_occupancy`` rejects more arrivals than probes.  Once that
count is fixed the case passes and the strict mark fails the run until
it is removed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.study.census import run_census

#: Absolute heap budget for the 50k leg.  The pipeline's live set is one
#: export chunk + the aggregate bundle (a few MiB); the budget is fixed —
#: it deliberately does NOT scale with the platform count below.
HEAP_BUDGET_MIB = 48.0
#: A 5x census may cost at most this much more heap (noise headroom, not
#: growth: the streamed peak is effectively flat).
GROWTH_FACTOR = 1.5
CHUNK_ROWS = 2_000


def _traced_peak_mib(count: int, out_root: str) -> float:
    out_dir = os.path.join(out_root, f"census-{count}")
    tracemalloc.reset_peak()
    result = run_census(count=count, seed=0, simulate=True, out_dir=out_dir,
                        chunk_size=CHUNK_ROWS)
    _, peak = tracemalloc.get_traced_memory()
    assert result.aggregates.rows == count
    assert result.written_rows == count
    return peak / (1024.0 * 1024.0)


@pytest.mark.slow
def test_50k_census_heap_stays_under_fixed_budget(tmp_path):
    tracemalloc.start()
    try:
        small = _traced_peak_mib(10_000, str(tmp_path))
        large = _traced_peak_mib(50_000, str(tmp_path))
    finally:
        tracemalloc.stop()

    assert large <= HEAP_BUDGET_MIB, (
        f"50k-platform census peaked at {large:.1f} MiB of heap; the fixed "
        f"budget is {HEAP_BUDGET_MIB:.0f} MiB — a whole-census buffer has "
        f"crept back onto the row path")
    assert large <= small * GROWTH_FACTOR + 1.0, (
        f"heap peak grew {large / small:.2f}x from 10k to 50k platforms "
        f"({small:.1f} → {large:.1f} MiB); the streaming census must not "
        f"scale with census size")


#: How much larger the eight-times-larger real census's peak RSS may be.
#: The spec list ``run_census`` materializes and the shard plan still grow
#: with the census (a few MiB at 16k); every shard world stays flat.
RSS_SLOPE = 1.25

#: The census process.  Started from :data:`_LAUNCHER`, not from the test
#: process: a child's ``ru_maxrss`` starts at the resident size of the
#: process that spawned it, and a pytest process is larger than a census.
_CENSUS = """
import json, sys
from repro.study.census import run_census
population, caps = sys.argv[1], json.loads(sys.argv[2])
count, out_dir = int(sys.argv[3]), sys.argv[4]
result = run_census(population=population, count=count, seed=0,
                    stream=True, out_dir=out_dir, spec_caps=caps)
assert result.aggregates.rows == result.written_rows == count
"""

_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-c"] + sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
assert status == 0, status
print(usage.ru_maxrss)
"""

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: ``spec_caps`` per population: the census-smtp workload's caps for both
#: indirect populations, none for open resolvers.
INDIRECT_CAPS = {"max_ingress": 2, "max_caches": 2, "max_egress": 4}
POPULATIONS = {
    "open-resolvers": {},
    "email-servers": INDIRECT_CAPS,
    "ad-network": INDIRECT_CAPS,
}


class CensusCrashed(Exception):
    """The census process exited non-zero; the message is its stderr."""


def _census_maxrss_mib(population: str, count: int, out_root: Path) -> float:
    """``ru_maxrss`` of one real streamed census in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, _CENSUS, population,
         json.dumps(POPULATIONS[population]), str(count),
         str(out_root / f"{population}-{count}")],
        env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise CensusCrashed(done.stderr)
    return int(done.stdout.split()[-1]) / 1024.0


def _assert_flat(population: str, small_count: int, large_count: int,
                 out_root: Path) -> None:
    small = _census_maxrss_mib(population, small_count, out_root)
    large = _census_maxrss_mib(population, large_count, out_root)
    assert large <= small * RSS_SLOPE, (
        f"a real streamed {population} census peaked at {small:.1f} MiB "
        f"with {small_count:,} platforms and {large:.1f} MiB with "
        f"{large_count:,} ({large / small:.2f}x > {RSS_SLOPE}x): shard "
        f"worlds are keeping what measured platforms left behind")


@pytest.mark.parametrize("population", list(POPULATIONS))
def test_real_census_rss_is_flat_from_200_to_1600_platforms(population,
                                                            tmp_path):
    _assert_flat(population, 200, 1_600, tmp_path)


#: Only a crash of the census is expected; a failed slope gate still fails.
SMTP_RETRANSMISSIONS_CRASH = pytest.mark.xfail(
    strict=True, raises=CensusCrashed,
    reason="the SMTP bypass counts retransmissions, so at spec 9,592 the "
           "capped 16k email census sees more arrivals than probes and "
           "estimate_from_occupancy raises ValueError")


@pytest.mark.slow
@pytest.mark.parametrize("population", [
    "open-resolvers",
    pytest.param("email-servers", marks=SMTP_RETRANSMISSIONS_CRASH),
    "ad-network",
])
def test_real_census_rss_is_flat_from_2k_to_16k_platforms(population,
                                                          tmp_path):
    _assert_flat(population, 2_000, 16_000, tmp_path)
