"""How many Python calls one structured probe and one SMTP lookup cost.

Census-lossy's probes all take the structured net → resolver → cache →
server path, and its throughput is the work that path does per probe.
Census-smtp's lookups take the same path behind a mail server's stub
resolver, and most of them come back as NODATA answers with an SOA.
Timing a census is noisy on a shared host; the number of Python-level
calls it makes is not: for a fixed seed and population it is the same on
every run.  These guards count ``call`` events with :func:`sys.setprofile`
while a 20-platform lane measures its platforms, and fail when the count
per probe (per lookup) grows past the recorded figure by more than 5% —
the way the per-probe work can creep back without a test noticing.

The figures were recorded on CPython 3.11.  CPython 3.12 inlines
comprehensions, which these paths hardly use: it counts within 0.5% of
3.11 on both lanes.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

from repro.client.smtp import SmtpServer
from repro.study import ShardLane, WorldConfig, plan_shards
from repro.study.census import iter_specs

#: Python ``call`` events per probe of the census-lossy lane, CPython 3.11.
CALLS_PER_PROBE = 115.9
#: Python ``call`` events per stub lookup of the census-smtp lane,
#: CPython 3.11.
CALLS_PER_SMTP_LOOKUP = 141.2
#: Headroom before a guard fails.
SLACK = 1.05


def _count_calls(run: Callable[[], Any], skip: Any = None) -> tuple[int, Any]:
    """``run()``'s Python ``call`` events (none of code object ``skip``)
    and its result."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is not skip:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return calls, result


def test_calls_per_structured_probe():
    specs = list(iter_specs("open-resolvers", 20, seed=0))
    config = WorldConfig(seed=0, fault_profile="loss-default",
                         retry_profile="paper")
    lane = ShardLane(plan_shards(specs, base_seed=0, n_shards=1,
                                 config=config)[0])
    calls, rows = _count_calls(lambda: list(iter(lane.step, None)))
    assert len(rows) == len(specs)
    assert lane.fused_probes == 0
    assert lane.fallback_probes > 0
    per_probe = calls / lane.fallback_probes
    assert per_probe <= CALLS_PER_PROBE * SLACK, (
        f"{per_probe:.1f} Python calls per structured probe, "
        f"recorded {CALLS_PER_PROBE}")


def test_calls_per_smtp_lookup(monkeypatch):
    """Census-smtp's lane: email servers with its tail caps (2 ingress,
    2 caches, 4 egress); lookups are counted from each delivery's
    ``DeliveryAttempt.lookups``, by a wrapper whose own calls are not."""
    specs = list(iter_specs("email-servers", 20, seed=0, max_ingress=2,
                            max_caches=2, max_egress=4))
    lane = ShardLane(plan_shards(specs, base_seed=0, n_shards=1,
                                 config=WorldConfig(seed=0))[0])
    lookups = 0
    receive = SmtpServer.receive_message

    def counted(self, mail_from, rcpt_to):
        nonlocal lookups
        attempt = receive(self, mail_from, rcpt_to)
        lookups += len(attempt.lookups)
        return attempt

    monkeypatch.setattr(SmtpServer, "receive_message", counted)
    calls, rows = _count_calls(lambda: list(iter(lane.step, None)),
                               skip=counted.__code__)
    assert len(rows) == len(specs)
    assert lookups > 0
    per_lookup = calls / lookups
    assert per_lookup <= CALLS_PER_SMTP_LOOKUP * SLACK, (
        f"{per_lookup:.1f} Python calls per SMTP lookup, "
        f"recorded {CALLS_PER_SMTP_LOOKUP}")
