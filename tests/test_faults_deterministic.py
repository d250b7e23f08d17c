"""Fault injection keeps the parallel engine's determinism contract.

Extends ``test_study_parallel.py``: with a seeded fault plan and a retry
policy active, the same ``(specs, base_seed, n_shards)`` must still produce
byte-identical measurement rows — including every degradation field — no
matter how many workers execute the shards.  Fault plans travel as profile
*names* inside :class:`WorldConfig`, so shard workers rebuild identical
injectors from their shard seeds.
"""

from __future__ import annotations

import pytest

from repro.net.faults import FAULT_PROFILES, fault_plan
from repro.study import (
    MeasurementBudget,
    WorldConfig,
    build_world,
    measurement_to_dict,
    measure_population,
    stream_parallel_measurement,
)
from repro.study.population import generate_population

FAST_BUDGET = MeasurementBudget(confidence=0.9, max_enumeration_queries=96,
                                egress_probe_factor=2.0, min_egress_probes=8,
                                max_egress_probes=32)
CAPS = dict(max_ingress=6, max_caches=4, max_egress=6)
N_SPECS = 6
N_SHARDS = 3
SEED = 11

#: Profiles exercising every decision path: probabilistic drops, middlebox
#: answers, clock-driven rate limiting and the everything-at-once mix.
PROFILES = ("loss-cn", "servfail-middlebox", "rate-limited", "hostile-mix")


def _specs(population: str = "open-resolvers"):
    return generate_population(population, N_SPECS, seed=SEED, **CAPS)


def _row_key(rows):
    """Everything a measurement row carries, degradation fields included."""
    return [(row.spec.name, row.measured_caches, row.measured_egress,
             row.queries_used, row.technique, row.attempts, row.retries,
             row.gave_up, tuple(sorted(row.fault_exposure.items())))
            for row in rows]


def _config(profile: str, retry: str = "paper") -> WorldConfig:
    return WorldConfig(seed=SEED, fault_profile=profile, retry_profile=retry)


class TestDeterminismUnderFaults:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_identical_rows_at_workers_0_and_4(self, profile):
        specs = _specs()
        reference = None
        for workers in (0, 4):
            rows = stream_parallel_measurement(
                specs, base_seed=SEED, workers=workers, n_shards=N_SHARDS,
                config=_config(profile), budget=FAST_BUDGET)
            key = _row_key(rows)
            if reference is None:
                reference = key
            else:
                assert key == reference, (
                    f"{profile}: workers=4 diverged from workers=0")

    def test_repeat_runs_identical_under_hostile_mix(self):
        specs = _specs()
        runs = [_row_key(stream_parallel_measurement(
                    specs, base_seed=SEED, n_shards=N_SHARDS,
                    config=_config("hostile-mix"), budget=FAST_BUDGET))
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_indirect_populations_deterministic_under_faults(self):
        # The SMTP/browser paths route through stubs (their own retry
        # rotation) — cover one of them across worker counts too.
        specs = _specs("email-servers")
        keys = [
            _row_key(stream_parallel_measurement(
                specs, base_seed=SEED, workers=workers, n_shards=N_SHARDS,
                config=_config("loss-cn"), budget=FAST_BUDGET))
            for workers in (0, 4)
        ]
        assert keys[0] == keys[1]

    def test_different_fault_profiles_are_different_worlds(self):
        specs = _specs()
        polite = stream_parallel_measurement(
            specs, base_seed=SEED, n_shards=N_SHARDS,
            config=_config("none", retry="none"), budget=FAST_BUDGET)
        hostile = stream_parallel_measurement(
            specs, base_seed=SEED, n_shards=N_SHARDS,
            config=_config("hostile-mix"), budget=FAST_BUDGET)
        # Exhaust both streams first: perf is set once the rows are out.
        hostile_rows, polite_rows = list(hostile), list(polite)
        # The hostile run must actually have been exposed to faults...
        assert any(row.fault_exposure for row in hostile_rows)
        assert hostile.perf.stats.faults_injected > 0
        # ...while the polite run carries no degradation at all.
        assert all(not row.degraded for row in polite_rows)
        assert polite.perf.stats.faults_injected == 0


class TestNoFaultsIsExactlyTheSeedPipeline:
    def test_none_profile_attaches_no_injector(self):
        world = build_world(seed=SEED)
        assert world.injector is None
        assert world.network.injector is None
        assert world.retry is None

    def test_default_config_rows_equal_explicit_none_profile_rows(self):
        specs = _specs()
        defaults = stream_parallel_measurement(
            specs, base_seed=SEED, n_shards=N_SHARDS,
            config=WorldConfig(seed=SEED), budget=FAST_BUDGET)
        explicit = stream_parallel_measurement(
            specs, base_seed=SEED, n_shards=N_SHARDS,
            config=_config("none", retry="none"), budget=FAST_BUDGET)
        assert _row_key(defaults) == _row_key(explicit)

    def test_default_rows_export_without_resilience_section(self):
        world = build_world(seed=SEED, lossy_platforms=False)
        specs = _specs()[:2]
        rows = measure_population(world, specs, FAST_BUDGET)
        for row in rows:
            assert not row.degraded
            assert "resilience" not in measurement_to_dict(row)

    def test_degraded_rows_export_the_resilience_section(self):
        world = build_world(seed=SEED, lossy_platforms=False,
                            fault_profile="hostile-mix",
                            retry_profile="paper")
        specs = _specs()[:2]
        rows = measure_population(world, specs, FAST_BUDGET)
        degraded = [row for row in rows if row.degraded]
        assert degraded, "hostile-mix produced no visible degradation"
        payload = measurement_to_dict(degraded[0])
        section = payload["resilience"]
        assert set(section) == {"attempts", "retries", "gave_up",
                                "fault_exposure"}
        assert list(section["fault_exposure"]) == \
            sorted(section["fault_exposure"])


class TestWorkerMatrixByteIdentity:
    """The pipelined engine's full determinism matrix.

    Rows must be byte-identical at every worker count under every fault
    profile; ``force_pool`` bypasses the :func:`resolve_workers`
    heuristic so real process pools are exercised even on machines where
    the heuristic would keep a run this small in-process.
    """

    MATRIX_PROFILES = ("none", "loss-default", "hostile-mix")

    @pytest.mark.parametrize("profile", MATRIX_PROFILES)
    def test_identical_rows_across_worker_counts(self, profile):
        specs = _specs()
        reference = None
        for workers in (0, 1, 2, 4):
            streamed = stream_parallel_measurement(
                specs, base_seed=SEED, workers=workers, n_shards=N_SHARDS,
                config=_config(profile), budget=FAST_BUDGET,
                force_pool=workers > 0)
            key = _row_key(streamed)
            # force_pool really ran a pool (capped by the shard count).
            expected = min(workers, N_SHARDS) if workers else 0
            assert streamed.perf.workers == expected
            if reference is None:
                reference = key
            else:
                assert key == reference, (
                    f"{profile}: workers={workers} diverged")


class TestProfileRegistry:
    def test_every_profile_resolves(self):
        for name in FAULT_PROFILES:
            assert fault_plan(name).name == name

    def test_unknown_profile_lists_known_names(self):
        with pytest.raises(KeyError, match="hostile-mix"):
            fault_plan("no-such-profile")

    def test_none_profile_is_noop(self):
        assert fault_plan("none").is_noop
        assert all(not fault_plan(name).is_noop
                   for name in FAULT_PROFILES if name != "none")
