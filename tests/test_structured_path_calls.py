"""How many Python calls one structured probe costs.

Census-lossy's probes all take the structured net → resolver → cache →
server path, and its throughput is the work that path does per probe.
Timing a census is noisy on a shared host; the number of Python-level
calls it makes is not: for a fixed seed and population it is the same on
every run.  This guard counts ``call`` events with :func:`sys.setprofile`
while a 20-platform census-lossy lane measures its platforms, and fails
when the count per probe grows past the recorded figure by more than 5%
— the way the per-probe work can creep back without a test noticing.

The figure was recorded on CPython 3.11, which makes a call per
comprehension; 3.12 inlines comprehensions, so it counts fewer.
"""

from __future__ import annotations

import sys

from repro.study import ShardLane, WorldConfig, plan_shards
from repro.study.census import iter_specs

#: Python ``call`` events per probe of the lane below, on CPython 3.11.
CALLS_PER_PROBE = 139.0
#: Headroom before the guard fails.
SLACK = 1.05


def test_calls_per_structured_probe():
    specs = list(iter_specs("open-resolvers", 20, seed=0))
    config = WorldConfig(seed=0, fault_profile="loss-default",
                         retry_profile="paper")
    lane = ShardLane(plan_shards(specs, base_seed=0, n_shards=1,
                                 config=config)[0])
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        rows = list(iter(lane.step, None))
    finally:
        sys.setprofile(previous)
    assert len(rows) == len(specs)
    assert lane.fused_probes == 0
    assert lane.fallback_probes > 0
    per_probe = calls / lane.fallback_probes
    assert per_probe <= CALLS_PER_PROBE * SLACK, (
        f"{per_probe:.1f} Python calls per structured probe, "
        f"recorded {CALLS_PER_PROBE}")
