"""The sharded parallel engine: determinism, merging, planning, perf.

The contract under test is the one DESIGN.md promises for the whole
toolkit: seeded runs are reproducible.  For the engine that means the
shard plan depends only on ``(specs, base_seed, n_shards)`` and the
worker pool changes *scheduling only* — the sequential sweep (which
``run_shard`` executes per shard) and the 1/2/4-worker pools must all
produce identical rows.
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import infrastructure
from repro.core.infrastructure import PROBE_TTL
from repro.net.latency import ConstantLatency, LogNormalLatency
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.network import LinkProfile
from repro.resolver.platform import ResolutionPlatform
from repro.server import hierarchy
from repro.server.authoritative import AuthoritativeServer
from repro.server.hierarchy import DELEGATION_TTL
from repro.study import (
    DEFAULT_SHARDS,
    MIN_PLATFORMS_PER_WORKER,
    MeasurementBudget,
    POPULATIONS,
    PlatformSpec,
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
        assert all(a.config.seed != b.config.seed
                   for a, b in zip(baseline, other))
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

    def test_in_process_stream_holds_no_rows_back(self, monkeypatch):
        # Each row is measured when it is due: after the k-th row leaves
        # the stream exactly k platforms have been built, so no lane runs
        # ahead of the stripe order and buffers finished rows.  Every
        # platform sends over 64 probes, so a scheduler that interleaved
        # lanes within a platform would have built ahead.
        built = []
        add = SimulatedInternet.add_platform_from_spec

        def counted(world, spec):
            built.append(spec.index)
            return add(world, spec)

        monkeypatch.setattr(SimulatedInternet, "add_platform_from_spec",
                            counted)
        specs = generate_population("open-resolvers", 12, seed=SEED, **CAPS)
        streamed = stream_parallel_measurement(specs, base_seed=SEED,
                                               workers=0, n_shards=3,
                                               budget=replace(
                                                   FAST_BUDGET,
                                                   min_egress_probes=64,
                                                   max_egress_probes=64))
        for taken, row in enumerate(streamed, start=1):
            assert row.queries_used > 64
            assert len(built) == taken
            assert row.spec.index == built[-1]
        assert taken == len(specs)

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


class TestShardPlan:
    def test_plan_is_deterministic(self):
        specs = _specs("open-resolvers")
        first = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS)
        second = plan_shards(specs, base_seed=SEED, n_shards=N_SHARDS)
        assert [(t.shard_index, t.config.seed, t.positions)
                for t in first] == \
            [(t.shard_index, t.config.seed, t.positions) for t in second]

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
        emitted = []
        perf = run_shard(task, emitted.append)
        world = SimulatedInternet(task.config)
        rows = measure_population(world, list(task.specs), task.budget)
        assert _row_key(emitted) == _row_key(rows)
        assert perf.shard_index == task.shard_index
        assert perf.platforms == len(task.specs)


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


@dataclass(frozen=True)
class CorridorShape:
    """One world shape the fused corridor accepts.

    ``platforms`` holds ``(n_ingress, n_caches, n_egress)`` per platform of
    the shard.  The four links are the profiles of the prober, the
    platforms' ingress and egress addresses and every authoritative server
    (root, TLD, CDE).  ``wildcard_ttl`` and ``ns_ttl`` replace the CDE
    zone's record TTL and the delegation TTL, so short values expire
    answers and corridor entries inside a probe train.
    """

    platforms: tuple[tuple[int, int, int], ...]
    capacity: int
    prober: LinkProfile
    ingress: LinkProfile
    egress: LinkProfile
    server: LinkProfile
    wildcard_ttl: int = PROBE_TTL
    ns_ttl: int = DELEGATION_TTL


#: Every model that compiles (``repro.net.network.compile_link``), so the
#: corridor takes every link.
_LINKS = st.builds(
    LinkProfile,
    latency=st.one_of(
        st.builds(ConstantLatency, st.floats(0.001, 0.05)),
        st.builds(LogNormalLatency, median=st.floats(0.001, 0.05),
                  sigma=st.floats(0.0, 0.6))),
    loss=st.one_of(st.just(NoLoss()),
                   st.builds(BernoulliLoss, st.floats(0.0, 0.3))))

_SHAPES = st.builds(
    CorridorShape,
    platforms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 6),
                                 st.integers(1, 4)),
                       min_size=2, max_size=4).map(tuple),
    capacity=st.integers(2, 64),
    prober=_LINKS, ingress=_LINKS, egress=_LINKS, server=_LINKS,
    wildcard_ttl=st.sampled_from([1, 2, 5, PROBE_TTL]),
    ns_ttl=st.sampled_from([1, 3, 10, DELEGATION_TTL]))

_STEADY = LinkProfile(ConstantLatency(0.01), NoLoss())
_LOSSY = LinkProfile(ConstantLatency(0.01), BernoulliLoss(0.3))
#: Pinned shapes, so every run reaches these branches whatever the draws:
#: upstream request loss (lossy egress, steady server) ...
_EGRESS_LOSS = CorridorShape(
    platforms=((1, 3, 2), (2, 4, 1), (1, 2, 3)), capacity=64,
    prober=_STEADY, ingress=_STEADY, egress=_LOSSY, server=_STEADY)
#: ... upstream response loss on a jittered server leg ...
_SERVER_LOSS = CorridorShape(
    platforms=((1, 4, 2), (1, 1, 1), (3, 3, 2)), capacity=64,
    prober=LinkProfile(LogNormalLatency(0.004, 0.2), BernoulliLoss(0.1)),
    ingress=_STEADY, egress=_STEADY,
    server=LinkProfile(LogNormalLatency(0.008, 0.3), BernoulliLoss(0.3)))
#: ... and answers, corridor entries and LRU victims that expire or get
#: evicted inside a probe train.
_TTL_EXPIRY = CorridorShape(
    platforms=((1, 2, 1), (2, 5, 3), (1, 3, 2)), capacity=6,
    prober=_STEADY, ingress=_STEADY, egress=_STEADY, server=_STEADY,
    wildcard_ttl=1, ns_ttl=2)

def _rng_state(value):
    return value.getstate() if isinstance(value, random.Random) else value


def _retire_state(world, hosted):
    """Everything a platform's probes left behind, read as it retires."""
    platform = hosted.platform
    return {
        "platform": astuple(platform.stats),
        "sequence": platform._sequence,
        "selectors": [
            {name: _rng_state(value) for name, value in vars(selector).items()}
            for selector in (platform.cache_selector,
                             platform.egress_selector)],
        "caches": [
            (astuple(cache.stats),
             [(key, entry.hits, entry.last_used, entry.stored_at,
               entry.expires_at) for key, entry in cache._entries.items()])
            for cache in platform.caches],
        "streams": [world.rng_factory.stream(label).getstate()
                    for label in hosted.streams],
        # Every server's log, before retire_platform forgets it.
        "logs": [[(entry.timestamp, entry.src_ip, entry.qname, entry.qtype,
                   entry.msg_id) for entry in log]
                 for log in world.query_logs()],
    }


def _corridor_run(shape, selector, fused):
    """Run one shard of ``shape`` with the fast plan on or off.

    Returns the per-retirement states, the end state and the lane (for
    its probe counters).
    A run whose estimator rejects its counts (a re-fetch after a TTL
    expiry can push arrivals past the probes sent) ends there: the error
    and the in-flight platform's state join the comparison, so both paths
    must fail alike.
    """
    specs = [PlatformSpec(population="open-resolvers", index=index + 1,
                          operator="unknown", country="default",
                          n_ingress=n_ingress, n_caches=n_caches,
                          n_egress=n_egress, selector_name=selector)
             for index, (n_ingress, n_caches, n_egress)
             in enumerate(shape.platforms)]
    task = plan_shards(specs, base_seed=SEED, n_shards=1,
                       budget=FAST_BUDGET)[0]
    retired = []
    add_platform = SimulatedInternet.add_platform_from_spec
    retire = SimulatedInternet.retire_platform

    def shaped_platform(world, spec):
        hosted = add_platform(world, spec)
        platform = hosted.platform
        network = world.network
        config = platform.config
        network.register_many(config.ingress_ips, platform, shape.ingress)
        network.register_many(config.egress_ips,
                              network.endpoint_at(config.egress_ips[0]),
                              shape.egress)
        for cache in platform.caches:
            cache.capacity = shape.capacity
        return hosted

    def snapshot_and_retire(world, hosted):
        retired.append(_retire_state(world, hosted))
        retire(world, hosted)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infrastructure, "PROBE_TTL", shape.wildcard_ttl)
        patch.setattr(hierarchy, "DELEGATION_TTL", shape.ns_ttl)
        patch.setattr(SimulatedInternet, "add_platform_from_spec",
                      shaped_platform)
        patch.setattr(SimulatedInternet, "retire_platform",
                      snapshot_and_retire)
        if not fused:
            patch.setattr(engine._FastPlan, "build",
                          staticmethod(lambda *args, **kwargs: None))
        lane = ShardLane(task)
        world = lane.world
        network = world.network
        network.register(world.prober_ip,
                         network.endpoint_at(world.prober_ip), shape.prober)
        for ip, registration in list(network._endpoints.items()):
            if isinstance(registration.endpoint, AuthoritativeServer):
                network.register(ip, registration.endpoint, shape.server)
        rows = []
        try:
            for row in iter(lane.step, None):
                rows.append(row)
            error = None
        except ValueError as raised:
            error = (type(raised).__name__, str(raised))
            retired.extend(_retire_state(world, hosted)
                           for hosted in world.platforms)
    end = {
        "error": error,
        "rows": rows,
        "stats": astuple(network.stats),
        "clock": network.clock.now,
        "queries_sent": world.prober.queries_sent,
        "network_rng": network._rng.getstate(),
        "prober_rng": world.prober.rng.getstate(),
    }
    return retired, end, lane


class TestFusedCorridorEquivalence:
    """The fused corridor leaves exactly the structured path's state.

    Each example runs one open-resolver shard twice: as is, then with the
    fast plan disabled so every probe takes the structured
    net → platform → iterative → authoritative path.  Whatever the
    selector, cache count and size, ingress/egress fan-out, link models
    and TTLs, both runs must leave the same cache counters and entries,
    platform and selector state, RNG streams and server logs at every
    retirement, and the same rows, network counters, clock and RNG
    positions at the end.
    """

    @pytest.mark.parametrize("selector", [name for name, _ in SELECTOR_MIX])
    @settings(derandomize=True, deadline=None, max_examples=20)
    @example(shape=_EGRESS_LOSS)
    @example(shape=_SERVER_LOSS)
    @example(shape=_TTL_EXPIRY)
    @given(shape=_SHAPES)
    def test_fused_matches_structured(self, selector, shape):
        fused, fused_end, fused_perf = _corridor_run(
            shape, selector, fused=True)
        structured, structured_end, structured_perf = _corridor_run(
            shape, selector, fused=False)
        assert fused_perf.fused_probes > 0
        assert fused_perf.fallback_probes == 0
        assert structured_perf.fused_probes == 0
        assert len(fused) == len(structured)
        for index, (mine, theirs) in enumerate(zip(fused, structured)):
            for key in mine:
                assert mine[key] == theirs[key], (index, key)
        for key in fused_end:
            assert fused_end[key] == structured_end[key], key


class TestWarmMemoAfterRealUpstream:
    """A real upstream re-fetch re-arms the cache's warm corridor memo.

    In the TTL-expiry shape the corridor entries expire inside a probe
    train, so the warm tier declines and the real ``_resolve_upstream``
    re-fetches them.  Its next probes must take the warm tier again, not
    the real path until the next cold replay.
    """

    @pytest.mark.parametrize("selector, real_upstreams", [
        ("round-robin", 10), ("uniform-random", 9)])
    def test_real_upstreams_in_the_ttl_expiry_shape(
            self, selector, real_upstreams, monkeypatch):
        calls = []
        resolve_upstream = ResolutionPlatform._resolve_upstream

        def counted(platform, cache, qname, qtype):
            calls.append(qname)
            return resolve_upstream(platform, cache, qname, qtype)

        monkeypatch.setattr(ResolutionPlatform, "_resolve_upstream", counted)
        _, _, lane = _corridor_run(_TTL_EXPIRY, selector, fused=True)
        assert lane.fallback_probes == 0
        assert len(calls) == real_upstreams
