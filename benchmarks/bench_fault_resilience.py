"""Resilience bench: measurement accuracy vs. injected loss rate.

The paper reports packet loss up to 11% (Iran) and almost 4% (China) during
its Internet measurements (§V) and copes with retransmission/carpet
bombing.  This bench sweeps the injected-loss fault profiles built from
``PAPER_LOSS_RATES`` (plus the stress-test ``loss-heavy`` profile) over the
same open-resolver population and records, for each rate, the cache-count
accuracy with retries disabled next to the paper retry policy.

Two properties are asserted and the full sweep is written to
``BENCH_resilience.json`` at the repo root:

* no profile ever makes the measurement overcount (loss only loses);
* at every non-zero loss rate the paper retry policy is at least as
  accurate as no retries, and every degraded run says so in its rows.

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-scale smoke run.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.net.loss import PAPER_LOSS_RATES
from repro.study import (
    MeasurementBudget,
    WorldConfig,
    accuracy_report,
    generate_population,
    resilience_summary,
    stream_parallel_measurement,
)

from conftest import run_once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

POPULATION_SIZE = 12 if SMOKE else 60
CAPS = dict(max_ingress=8, max_caches=8, max_egress=8)
BUDGET = MeasurementBudget(confidence=0.95, max_enumeration_queries=160,
                           egress_probe_factor=2.0, min_egress_probes=8,
                           max_egress_probes=48)
SEED = 3
N_SHARDS = 4
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_resilience.json"

#: Loss sweeps, ordered by rate: the paper's measured rates plus the
#: stress-test profile.  Values are (profile name, injected loss rate).
LOSS_SWEEP = (
    ("none", 0.0),
    ("loss-default", PAPER_LOSS_RATES["default"]),
    ("loss-cn", PAPER_LOSS_RATES["CN"]),
    ("loss-ir", PAPER_LOSS_RATES["IR"]),
    ("loss-heavy", 0.25),
)
RETRY_PROFILES = ("none", "paper")


def _leg(specs, fault_profile: str, retry_profile: str):
    config = WorldConfig(seed=SEED, fault_profile=fault_profile,
                         retry_profile=retry_profile)
    streamed = stream_parallel_measurement(specs, base_seed=SEED,
                                           n_shards=N_SHARDS, config=config,
                                           budget=BUDGET)
    rows = list(streamed)
    accuracy = accuracy_report(rows)
    degradation = resilience_summary(rows)
    return {
        "fault_profile": fault_profile,
        "retry_profile": retry_profile,
        "platforms": len(rows),
        "exact_rate": accuracy.cache_overall.exact_rate,
        "mean_absolute_error": accuracy.cache_overall.mean_absolute_error,
        "bias": accuracy.cache_overall.bias,
        "overcounts": accuracy.cache_overall.overcounts,
        "queries_sent": streamed.perf.queries_sent,
        "faults_injected": streamed.perf.stats.faults_injected,
        "attempts": degradation.attempts,
        "retries": degradation.retries,
        "gave_up": degradation.gave_up,
        "degraded_platforms": degradation.degraded_platforms,
    }


def test_bench_fault_resilience(benchmark):
    specs = generate_population("open-resolvers", POPULATION_SIZE,
                                seed=SEED, **CAPS)

    def sweep():
        legs = []
        for fault_profile, rate in LOSS_SWEEP:
            for retry_profile in RETRY_PROFILES:
                leg = _leg(specs, fault_profile, retry_profile)
                leg["loss_rate"] = rate
                legs.append(leg)
        return legs

    legs = run_once(benchmark, sweep)

    by_key = {(leg["fault_profile"], leg["retry_profile"]): leg
              for leg in legs}
    for leg in legs:
        # Loss can only lose: the log-based census never counts phantoms.
        assert leg["overcounts"] == 0, leg
    for fault_profile, rate in LOSS_SWEEP:
        bare = by_key[(fault_profile, "none")]
        retried = by_key[(fault_profile, "paper")]
        if rate:
            assert retried["exact_rate"] >= bare["exact_rate"], fault_profile
            # Degradation is never silent: the injector fired and the rows
            # carry the exposure.
            assert retried["faults_injected"] > 0
            assert retried["degraded_platforms"] > 0
        else:
            # The clean profiles carry zero degradation bookkeeping.
            assert bare["faults_injected"] == 0
            assert bare["degraded_platforms"] == 0

    payload = {
        "population": "open-resolvers",
        "population_size": POPULATION_SIZE,
        "n_shards": N_SHARDS,
        "seed": SEED,
        "smoke": SMOKE,
        "paper_loss_rates": dict(PAPER_LOSS_RATES),
        "legs": legs,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print()
    print(f"open-resolvers x {POPULATION_SIZE}; accuracy vs injected loss")
    header = (f"{'profile':<14} {'rate':>5} {'retry':>6} {'exact':>7} "
              f"{'MAE':>6} {'gave up':>8} {'retries':>8}")
    print(header)
    for leg in legs:
        print(f"{leg['fault_profile']:<14} {leg['loss_rate']:>5.2f} "
              f"{leg['retry_profile']:>6} {leg['exact_rate']:>7.0%} "
              f"{leg['mean_absolute_error']:>6.2f} {leg['gave_up']:>8} "
              f"{leg['retries']:>8}")
