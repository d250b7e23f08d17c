"""The sharded parallel engine: determinism, merging, planning, perf.

The contract under test is the one DESIGN.md promises for the whole
toolkit: seeded runs are reproducible.  For the engine that means the
shard plan depends only on ``(specs, base_seed, n_shards)`` and the
worker pool changes *scheduling only* — the sequential sweep (which
``run_shard`` executes per shard) and the 1/2/4-worker pools must all
produce identical rows.
"""

from __future__ import annotations

from dataclasses import astuple, replace

import pytest

from repro.study import (
    DEFAULT_SHARDS,
    MIN_PLATFORMS_PER_WORKER,
    MeasurementBudget,
    POPULATIONS,
    SELECTOR_MIX,
    ShardLane,
    SimulatedInternet,
    WorldConfig,
    generate_population,
    plan_shards,
    resolve_workers,
    run_shard,
    shard_seed,
    stream_parallel_measurement,
)
from repro.study import engine
from repro.study.parallel import _decode_task, _encode_task
from repro.net.rng import derive_seed

FAST_BUDGET = MeasurementBudget(confidence=0.9, max_enumeration_queries=96,
                                egress_probe_factor=2.0, min_egress_probes=8,
                                max_egress_probes=32)
CAPS = dict(max_ingress=6, max_caches=4, max_egress=6)
N_SPECS = 9
N_SHARDS = 4
SEED = 11


def _specs(population: str):
    return generate_population(population, N_SPECS, seed=SEED, **CAPS)


def _row_key(rows):
    return [(row.spec.name, row.measured_caches, row.measured_egress,
             row.queries_used, row.technique) for row in rows]


class TestDeterminismAcrossWorkers:
    @pytest.mark.parametrize("population", POPULATIONS)
    def test_identical_rows_for_workers_0_1_2_4(self, population):
        specs = _specs(population)
        reference = None
        for workers in (0, 1, 2, 4):
            rows = stream_parallel_measurement(
                specs, base_seed=SEED, workers=workers, n_shards=N_SHARDS,
                budget=FAST_BUDGET)
            key = _row_key(rows)
            if reference is None:
                reference = key
            else:
                assert key == reference, (
                    f"{population}: workers={workers} diverged")

    def test_repeat_runs_are_identical(self):
        specs = _specs("open-resolvers")
        first = stream_parallel_measurement(specs, base_seed=SEED,
                                            n_shards=N_SHARDS,
                                            budget=FAST_BUDGET)
        second = stream_parallel_measurement(specs, base_seed=SEED,
                                             n_shards=N_SHARDS,
                                             budget=FAST_BUDGET)
        assert _row_key(first) == _row_key(second)

    def test_different_seed_reseeds_every_shard_world(self):
        specs = _specs("open-resolvers")
        baseline = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS)
        other = plan_shards(specs, base_seed=SEED + 1, n_shards=N_SHARDS)
        # The partition is seed-independent; the per-shard worlds are not.
        assert [t.positions for t in other] == \
            [t.positions for t in baseline]
        assert all(a.seed != b.seed for a, b in zip(baseline, other))
        # Measurement under the new seed still returns rows in spec order
        # (the tight caps here make the measured values themselves exact,
        # hence seed-independent — determinism of the *draws* is covered by
        # the shard-seed assertions above).
        rows = stream_parallel_measurement(specs, base_seed=SEED + 1,
                                           n_shards=N_SHARDS,
                                           budget=FAST_BUDGET)
        assert [row.spec.name for row in rows] == [s.name for s in specs]


class TestMerging:
    def test_rows_come_back_in_spec_order(self):
        specs = _specs("open-resolvers")
        rows = stream_parallel_measurement(specs, base_seed=SEED,
                                           n_shards=N_SHARDS,
                                           budget=FAST_BUDGET)
        assert [row.spec.name for row in rows] == [s.name for s in specs]

    def test_single_spec_population(self):
        specs = _specs("open-resolvers")[:1]
        rows = list(stream_parallel_measurement(specs, base_seed=SEED,
                                                budget=FAST_BUDGET))
        assert len(rows) == 1
        assert rows[0].spec.name == specs[0].name

    def test_empty_population(self):
        streamed = stream_parallel_measurement([], base_seed=SEED,
                                               budget=FAST_BUDGET)
        assert list(streamed) == []
        assert streamed.perf.platforms == 0

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            stream_parallel_measurement(_specs("open-resolvers"),
                                        workers=-1, budget=FAST_BUDGET)


class TestWorkerResolution:
    """The pool-vs-inprocess heuristic behind ``workers="auto"``."""

    def test_zero_workers_is_always_in_process(self):
        assert resolve_workers(0, n_tasks=8, n_platforms=10_000) == 0

    def test_auto_never_exceeds_cpu_count(self):
        import os

        resolved = resolve_workers("auto", n_tasks=8, n_platforms=10_000)
        assert 0 <= resolved <= (os.cpu_count() or 1)

    def test_small_populations_stay_in_process(self):
        # Far below MIN_PLATFORMS_PER_WORKER per worker: the pool's fixed
        # costs cannot amortize, so the engine runs in-process.
        assert resolve_workers(4, n_tasks=8, n_platforms=9) == 0

    def test_pool_capped_by_platforms_per_worker(self):
        resolved = resolve_workers(
            16, n_tasks=16, n_platforms=3 * MIN_PLATFORMS_PER_WORKER)
        assert resolved <= 3

    def test_pool_capped_by_task_count(self):
        assert resolve_workers(16, n_tasks=2, n_platforms=10 ** 6) <= 2

    def test_force_pool_bypasses_the_heuristic(self):
        assert resolve_workers(2, n_tasks=8, n_platforms=4,
                               force_pool=True) == 2

    def test_rejects_negative_and_junk(self):
        with pytest.raises(ValueError):
            resolve_workers(-1, n_tasks=1, n_platforms=1)
        with pytest.raises(ValueError):
            resolve_workers("many", n_tasks=1, n_platforms=1)


class TestCompactHandoff:
    """The pool payload: pre-serialized primitive tuples, nothing heavier."""

    def test_payload_round_trips_to_identical_rows(self):
        # A shard's rows depend on nothing but its task, so a task that
        # survives the handoff unchanged measures to identical rows.
        specs = _specs("open-resolvers")
        tasks = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS,
                            budget=FAST_BUDGET)
        for task in tasks:
            assert _decode_task(_encode_task(task)) == task

    def test_payload_is_compact(self):
        import pickle

        specs = _specs("open-resolvers")
        task = plan_shards(specs, base_seed=SEED, n_shards=1,
                           budget=FAST_BUDGET)[0]
        naive = len(pickle.dumps(task))
        compact = len(_encode_task(task))
        assert compact < naive


class TestShardPlan:
    def test_plan_is_deterministic(self):
        specs = _specs("open-resolvers")
        first = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS)
        second = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS)
        assert [(t.shard_index, t.seed, t.positions) for t in first] == \
            [(t.shard_index, t.seed, t.positions) for t in second]

    def test_striped_assignment_covers_every_spec_once(self):
        specs = _specs("open-resolvers")
        tasks = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS)
        positions = sorted(p for task in tasks for p in task.positions)
        assert positions == list(range(len(specs)))
        for task in tasks:
            assert all(p % N_SHARDS == task.shard_index
                       for p in task.positions)

    def test_shard_count_clamped_to_population(self):
        specs = _specs("open-resolvers")[:3]
        tasks = plan_shards(specs, base_seed=SEED, n_shards=16)
        assert len(tasks) == 3

    def test_default_shard_count(self):
        specs = generate_population("open-resolvers", DEFAULT_SHARDS * 2,
                                    seed=SEED, **CAPS)
        tasks = plan_shards(specs, base_seed=SEED)
        assert len(tasks) == DEFAULT_SHARDS

    def test_seed_derivation_uses_the_toolkit_scheme(self):
        assert shard_seed(SEED, 3) == derive_seed(SEED, "shard/3")
        assert shard_seed(SEED, 0) != shard_seed(SEED, 1)
        assert shard_seed(SEED, 0) != shard_seed(SEED + 1, 0)

    def test_task_config_carries_the_shard_seed(self):
        specs = _specs("open-resolvers")
        tasks = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS,
                            config=WorldConfig(seed=999))
        for task in tasks:
            assert task.config.seed == shard_seed(SEED, task.shard_index)

    def test_run_shard_matches_sequential_measurement(self):
        """``run_shard`` is literally the sequential sweep on a shard world:
        rebuilding the same world and calling measure_population agrees."""
        from repro.study import SimulatedInternet, measure_population

        specs = _specs("open-resolvers")
        task = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS,
                           budget=FAST_BUDGET)[0]
        outcome = run_shard(task)
        world = SimulatedInternet(task.config)
        rows = measure_population(world, list(task.specs), task.budget)
        assert _row_key(outcome.rows) == _row_key(rows)


class TestPerfCounters:
    def test_perf_is_populated(self):
        specs = _specs("open-resolvers")
        streamed = stream_parallel_measurement(specs, base_seed=SEED,
                                               n_shards=N_SHARDS,
                                               budget=FAST_BUDGET)
        assert len(list(streamed)) == len(specs)
        perf = streamed.perf
        assert perf.platforms == len(specs)
        assert perf.queries_sent > 0
        assert perf.wall_seconds > 0
        assert perf.queries_per_second > 0
        assert len(perf.shards) == streamed.n_shards == N_SHARDS
        assert sum(shard.platforms for shard in perf.shards) == len(specs)
        assert perf.busy_seconds > 0

    def test_perf_to_dict_round_trips_to_json(self):
        import json

        specs = _specs("open-resolvers")[:4]
        streamed = stream_parallel_measurement(specs, base_seed=SEED,
                                               n_shards=2, budget=FAST_BUDGET)
        assert len(list(streamed)) == 4
        payload = json.loads(json.dumps(streamed.perf.to_dict()))
        assert payload["platforms"] == 4
        assert len(payload["shards"]) == 2


def _shard_state(task, monkeypatch):
    """Run one shard and snapshot everything the fused corridor mutates.

    Each platform leaves the world once its row is out, so its caches'
    counters are read as it retires; the CDE log's arrival count survives
    the forgetting that comes with every retirement.
    """
    caches = []
    retire = SimulatedInternet.retire_platform

    def snapshot_and_retire(world, hosted):
        caches.extend(astuple(cache.stats)
                      for cache in hosted.platform.caches)
        retire(world, hosted)

    with monkeypatch.context() as patch:
        patch.setattr(SimulatedInternet, "retire_platform",
                      snapshot_and_retire)
        lane = ShardLane(task)
        outcome = lane.run_to_completion()
    world = lane.world
    assert len(caches) == sum(spec.n_caches for spec in task.specs)
    state = {
        "rows": outcome.rows,
        "stats": outcome.perf.stats,
        "caches": caches,
        "log": world.cde.server.query_log.total_recorded,
        "clock": world.network.clock.now,
        "queries_sent": world.prober.queries_sent,
    }
    return state, outcome.perf


class TestFusedCorridorEquivalence:
    """The fused corridor reproduces the structured path's full state.

    One open-resolver shard runs as is, then again with the fast plan
    disabled so every probe takes the structured resolver.  Rows, network
    stats, every cache's counters, the CDE query log's arrival count and
    the clock must all agree, for each stock cache selector.
    """

    @pytest.mark.parametrize("selector", [name for name, _ in SELECTOR_MIX])
    def test_fused_matches_structured(self, selector, monkeypatch):
        specs = [replace(spec, selector_name=selector)
                 for spec in _specs("open-resolvers")]
        task = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS,
                           budget=FAST_BUDGET)[0]
        fused, fused_perf = _shard_state(task, monkeypatch)
        monkeypatch.setattr(engine._FastPlan, "build",
                            staticmethod(lambda *args, **kwargs: None))
        structured, structured_perf = _shard_state(task, monkeypatch)
        assert fused_perf.fused_probes > 0
        assert fused_perf.fallback_probes == 0
        assert structured_perf.fused_probes == 0
        assert fused["log"] > 0
        assert fused == structured
