"""Scaling bench: the pipelined engine vs every older measurement path.

Seven legs over the same open-resolver population (the paper's largest
dataset, §V-A):

* ``seed-sequential``    — one shared world whose CDE nameserver logs
  through ``QueryLog(indexed=False)``: the seed implementation's
  full-scan query log, measured sequentially.
* ``sequential-indexed`` — the same shared world with the incremental
  query-log indexes (PR-1's win; still one platform at a time).
* ``shards-inprocess``   — the *legacy* shard loop: per-shard worlds run
  through ``measure_population`` one platform at a time, exactly what
  ``run_shard`` did before the pipelined engine.  Kept as the baseline
  the engine legs are judged against.
* ``workers-1/2/4``      — ``stream_parallel_measurement`` at explicit
  worker counts; :func:`repro.study.resolve_workers` decides whether a
  real pool can pay for itself, so every count must beat the legacy leg.
* ``pipelined``          — ``workers="auto"``: the engine's own choice
  (in-process :class:`~repro.study.ShardLane` steps in stripe order on
  small machines, a pool above the platforms-per-worker floor).

The shard plan is fixed (8 shards) independent of the worker count, so
every shard-based leg must produce byte-identical rows — including the
legacy leg, which is the engine's determinism contract.  The two
shared-world legs must agree with each other (indexing is
behaviour-preserving).  The bench asserts all of that, records every
leg's wall time and throughput to ``BENCH_scaling.json`` at the repo
root (preserving the ``wire`` section written by
``bench_wire_codec.py``), and in full mode requires the pipelined leg to
reach 10x the seed-sequential throughput and 3x the sequential-indexed
throughput (the indexed ratio rides closer to the scheduler-noise floor
of a 1-CPU container, so its gate keeps more headroom than the
order-of-magnitude seed gate), with every ``workers-N`` leg at least
matching the legacy shard loop.

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-scale smoke run (small
population; only the pipelined-vs-seed floor of 3x is asserted — the
log-scan crossover that powers the big ratios needs hundreds of
platforms).  Smoke mode times every leg but the legacy shard loop as the
best of ``ENGINE_REPEATS`` runs, so the floor's numerator and
denominator are sampled alike.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.server.querylog import QueryLog
from repro.study import (
    DEFAULT_SHARDS,
    MeasurementBudget,
    SimulatedInternet,
    WorldConfig,
    build_world,
    generate_population,
    measure_population,
    plan_shards,
    stream_parallel_measurement,
)

from conftest import run_once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Hundreds of platforms so the shared log's full scans dominate the
#: seed-equivalent leg (scan cost grows quadratically with population).
POPULATION_SIZE = 48 if SMOKE else 720
CAPS = dict(max_ingress=600, max_caches=24, max_egress=40)
BUDGET = MeasurementBudget(confidence=0.95, max_enumeration_queries=320,
                           egress_probe_factor=3.0, min_egress_probes=16,
                           max_egress_probes=192)
SEED = 0
WORKER_COUNTS = (1, 2, 4)
#: Repeats for the sub-2s engine legs (min wall wins; see ``_engine_leg``).
#: Smoke mode repeats too, for the shared-world legs as well: every smoke
#: leg is sub-second, so one sample can land inside a burst of host load
#: and flip the smoke floor.
ENGINE_REPEATS = 3
#: Smoke-mode speedup floor, pipelined vs seed-sequential (also enforced
#: by the CI scaling gate — keep the two in sync).
SMOKE_FLOOR = 3.0
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


def _row_key(rows):
    """The measured content of a sweep, for equality checks."""
    return [(row.spec.name, row.measured_caches, row.measured_egress,
             row.queries_used, row.technique) for row in rows]


def _sequential_leg(name: str, indexed: bool, specs):
    """One shared world, one platform at a time.

    ``indexed=False`` installs the full-scan log on the CDE nameserver
    before measuring.  Smoke mode takes the best of ``ENGINE_REPEATS``
    fresh-world runs (rows are identical on every repeat); the full-mode
    legs run for seconds and take one sample.
    """
    wall = float("inf")
    for _ in range(ENGINE_REPEATS if SMOKE else 1):
        world = build_world(seed=SEED)
        if not indexed:
            world.cde.server.query_log = QueryLog(indexed=False)
        started = time.perf_counter()
        rows = measure_population(world, specs, BUDGET)
        wall = min(wall, time.perf_counter() - started)
    queries = world.prober.queries_sent
    return {
        "leg": name,
        "wall_seconds": wall,
        "queries_sent": queries,
        "queries_per_second": queries / wall if wall else 0.0,
        "platforms": len(rows),
    }, rows


def _legacy_shard_leg(name: str, specs):
    """The pre-engine shard loop: fresh world + ``measure_population``."""
    tasks = plan_shards(specs, base_seed=SEED, n_shards=DEFAULT_SHARDS,
                        config=WorldConfig(seed=SEED), budget=BUDGET)
    started = time.perf_counter()
    merged = [None] * len(specs)
    queries = 0
    for task in tasks:
        world = SimulatedInternet(task.config)
        rows = measure_population(world, list(task.specs), task.budget)
        queries += world.prober.queries_sent + sum(
            row.queries_used for row in rows if row.technique != "direct")
        for position, row in zip(task.positions, rows):
            merged[position] = row
    wall = time.perf_counter() - started
    return {
        "leg": name,
        "workers": 0,
        "n_shards": len(tasks),
        "wall_seconds": wall,
        "queries_sent": queries,
        "queries_per_second": queries / wall if wall else 0.0,
        "platforms": len(merged),
    }, merged


def _engine_leg(name: str, workers, specs):
    """Engine legs are sub-2s; take the best of a few repeats.

    The long sequential legs integrate over scheduler-noise windows, but
    a one-second engine run can land entirely inside one — min-of-N is
    the standard damping for short measurements (results are identical
    on every repeat, so only the clock differs).
    """
    wall = float("inf")
    for _ in range(ENGINE_REPEATS):
        started = time.perf_counter()
        streamed = stream_parallel_measurement(
            specs, base_seed=SEED, workers=workers, n_shards=DEFAULT_SHARDS,
            config=WorldConfig(seed=SEED), budget=BUDGET)
        rows = list(streamed)
        wall = min(wall, time.perf_counter() - started)
    perf = streamed.perf
    return {
        "leg": name,
        "workers_requested": workers,
        "workers": perf.workers,
        "n_shards": streamed.n_shards,
        "wall_seconds": wall,
        "queries_sent": perf.queries_sent,
        "queries_per_second": perf.queries_sent / wall if wall else 0.0,
        "platforms": len(rows),
        "shard_busy_seconds": perf.busy_seconds,
        "fused_probes": perf.fused_probes,
        "fallback_probes": perf.fallback_probes,
    }, rows


def test_bench_scaling_parallel(benchmark, fail_on_fallback):
    specs = generate_population("open-resolvers", POPULATION_SIZE,
                                seed=SEED, **CAPS)

    def sweep():
        # Shortest legs first: a one-second leg measured in the thermal
        # shadow of 20s of sustained load runs on a throttled clock, while
        # the multi-second legs spend most of their life throttled at any
        # position — ordering by length keeps every leg's number close to
        # its best achievable run.
        legs = []
        shard_rows = {}
        pipelined_leg, rows = _engine_leg("pipelined", "auto", specs)
        legs.append(pipelined_leg)
        shard_rows["auto"] = rows
        for workers in WORKER_COUNTS:
            leg, rows = _engine_leg(f"workers-{workers}", workers, specs)
            legs.append(leg)
            shard_rows[workers] = rows
        legacy_leg, rows = _legacy_shard_leg("shards-inprocess", specs)
        legs.append(legacy_leg)
        shard_rows["legacy"] = rows
        indexed_leg, indexed_rows = _sequential_leg(
            "sequential-indexed", True, specs)
        legs.append(indexed_leg)
        seed_leg, seed_rows = _sequential_leg(
            "seed-sequential", False, specs)
        legs.append(seed_leg)
        return legs, seed_rows, indexed_rows, shard_rows

    legs, seed_rows, indexed_rows, shard_rows = run_once(benchmark, sweep)

    # Indexing must not change what the shared-world sweep measures.
    assert _row_key(seed_rows) == _row_key(indexed_rows)
    # Neither the pipelined engine nor the worker pool may change what the
    # shard plan measures — the legacy loop is the reference.
    reference = _row_key(shard_rows["legacy"])
    for workers, rows in shard_rows.items():
        assert _row_key(rows) == reference, f"workers={workers} diverged"

    by_leg = {leg["leg"]: leg for leg in legs}

    # The scaling trajectory is only meaningful if it was produced by the
    # fused corridor: the structured fallback yields identical rows ~4x
    # slower, so a desynced fast path masquerading as "pipelined" must be
    # a hard failure, not a slow success.
    assert by_leg["pipelined"]["fallback_probes"] == 0, (
        f"pipelined leg served {by_leg['pipelined']['fallback_probes']} "
        f"probes through the structured fallback — fast path desynced")
    assert by_leg["pipelined"]["fused_probes"] > 0
    if fail_on_fallback:
        for leg in legs:
            assert leg.get("fallback_probes", 0) == 0, (
                f"{leg['leg']}: {leg['fallback_probes']} fallback probes")

    def qps(leg_name):
        return by_leg[leg_name]["queries_per_second"]

    speedup_vs_seed = qps("pipelined") / qps("seed-sequential")
    speedup_vs_indexed = qps("pipelined") / qps("sequential-indexed")
    speedup_w4 = qps("workers-4") / qps("seed-sequential")

    payload = {
        "population": "open-resolvers",
        "population_size": POPULATION_SIZE,
        "n_shards": DEFAULT_SHARDS,
        "seed": SEED,
        "smoke": SMOKE,
        "cpu_count": os.cpu_count(),
        "rows_identical_across_workers": True,
        "speedup_pipelined_vs_seed": speedup_vs_seed,
        "speedup_pipelined_vs_indexed": speedup_vs_indexed,
        "speedup_workers4_vs_seed": speedup_w4,
        "legs": legs,
    }
    # The wire-codec bench owns the "wire" section, and "notes" records
    # hand-written before/after deltas; carry both across rewrites.
    if OUTPUT.exists():
        previous = json.loads(OUTPUT.read_text())
        for carried in ("wire", "notes"):
            if carried in previous:
                payload[carried] = previous[carried]
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print()
    print(f"open-resolvers x {POPULATION_SIZE}, {DEFAULT_SHARDS} shards "
          f"({os.cpu_count()} CPU(s)); rows identical across all legs")
    for leg in legs:
        print(f"  {leg['leg']:<20} {leg['wall_seconds']:7.2f}s "
              f"{leg['queries_per_second']:8.0f} q/s")
    print(f"  pipelined vs seed-sequential:    {speedup_vs_seed:.2f}x")
    print(f"  pipelined vs sequential-indexed: {speedup_vs_indexed:.2f}x "
          f"(written to {OUTPUT.name})")

    if SMOKE:
        assert speedup_vs_seed >= SMOKE_FLOOR, (
            f"pipelined must stay >={SMOKE_FLOOR}x over seed-sequential "
            f"even in smoke mode, got {speedup_vs_seed:.2f}x")
    else:
        assert speedup_vs_seed >= 10.0, (
            f"expected pipelined >=10x over the seed-equivalent baseline, "
            f"got {speedup_vs_seed:.2f}x")
        assert speedup_vs_indexed >= 3.0, (
            f"expected pipelined >=3x over sequential-indexed, "
            f"got {speedup_vs_indexed:.2f}x")
        for workers in WORKER_COUNTS:
            assert (qps(f"workers-{workers}")
                    >= qps("shards-inprocess")), (
                f"workers-{workers} fell behind the legacy shard loop")
