"""Tests of the census benchmark itself (outside the tier-1 suite).

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/census``.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent

#: Per-workload counts small enough for a unit test; census-lossy needs
#: enough probes for the fault profile to fire at least once.
TINY = {"census-open": 10, "census-lossy": 40, "census-smtp": 2,
        "fold-export": 500}


def _traced_census(name: str, out_dir: Path) -> tuple:
    tracer = spans.Tracer()
    result, record = workloads.run_workload(
        name, 0, str(out_dir), count=TINY[name], tracer=tracer)
    return tracer, result, record


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks_traced_and_untraced(name, tmp_path):
    _, record = workloads.run_workload(name, 0, str(tmp_path / "plain"),
                                       count=TINY[name])
    check = workloads.check_export(str(tmp_path / "plain"))
    assert check["complete"] and check["rows"] == record["rows"] == TINY[name]
    assert run.raw_export(tmp_path / "plain")["raw_sha256"] \
        == check["rows_sha256"]
    assert workloads.shape_errors(name, record, check) == []

    tracer, _, traced = _traced_census(name, tmp_path / "traced")
    assert workloads.check_export(str(tmp_path / "traced"))["rows_sha256"] \
        == check["rows_sha256"]
    wall = traced["t_return"] - traced["t_enter"]
    assert sum(tracer.layer_self().values()) == pytest.approx(wall, rel=0.01)


def test_install_wraps_and_uninstall_restores_every_span_point():
    def current():
        return [getattr(*spans.resolve(target))
                for _, target, _ in spans.POINTS]

    originals = current()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(now is not before
                   for now, before in zip(current(), originals))
    finally:
        tracer.uninstall()
    assert current() == originals


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    benchmark = run.load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] \
        == list(workloads.WORKLOADS)

    tracer, result, _ = _traced_census("census-lossy", tmp_path)
    layers = spans.layer_metrics(tracer, result,
                                 workloads.export_size(str(tmp_path)))
    assert set(layers) | {"trace.overhead_ratio"} \
        == {metric["name"] for metric in benchmark["per_layer"]}

    rep = {"rows": 10, "census_s": 1.0, "peak_rss_mb": 50.0, "setup_s": 0.2,
           "teardown_s": 0.1, "queries_sent": 100, "messages_sent": 120,
           "retransmissions": 20, "timeouts": 1, "durable_rows": 10}
    slower = dict(rep, census_s=2.0, setup_s=0.4, teardown_s=0.3)
    metrics, extras = run.end_to_end("census-open", [slower, rep],
                                     {"rows": 10, "miscounts": 1})
    assert set(extras) == set(run.EXTRA_METRICS)
    assert (metrics["rows_per_s"], metrics["setup_s"], extras["probe_qps"],
            extras["teardown_s"]) == (10.0, 0.2, 100.0, 0.1)
    outcome = {"workload": "census-open", "seed": 0, "attempted": 1,
               "failed": 0, "errors": [], "metrics": metrics,
               "extras": extras, "rows_sha256": "0" * 64, "reps": 1}
    emitted = run.report(outcome, benchmark, trace=False)
    assert {name: value["unit"] for name, value in emitted.items()} \
        == {metric["name"]: metric["unit"]
            for metric in benchmark["end_to_end"]}


def test_self_time_algebra_on_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    cache = "repro.cache.cache:DnsCache.get"
    net = "repro.net.network:Network.query"
    resolver = "repro.resolver.platform:ResolutionPlatform.handle_message"
    # root [0, 10] holds cache [1, 4] (holding net [2, 3]) and
    # resolver [5, 9] (holding cache [6, 7]).
    tracer.enter(spans.ROOT)
    for name in (cache, net):
        tracer.enter(name)
    tracer.exit()
    tracer.exit()
    for name in (resolver, cache):
        tracer.enter(name)
    tracer.exit()
    tracer.exit()
    assert tracer.exit() == 10.0

    layers = tracer.layer_self()
    assert (layers["cache"], layers["net"], layers["resolver"],
            layers["unattributed"]) == (3.0, 1.0, 3.0, 3.0)
    assert sum(layers.values()) == 10.0
    assert tracer.calls[cache] == 2


def test_generator_spans_cover_each_step_and_nest():
    tracer = spans.Tracer(clock=itertools.count().__next__)
    inner = tracer.wrap("inner", lambda value: value * 2)

    def rows(count):
        for value in range(count):
            yield inner(value)

    traced_rows = tracer.wrap("rows", rows)
    assert tracer.root(lambda: list(traced_rows(3))) == [0, 2, 4]
    # Every clock read advances one tick.  One ``rows`` span per ``next``
    # (three rows, then the exhausting call), each holding one ``inner``
    # span of one tick; the root's own ticks are its entry, exit and the
    # gaps between ``next`` calls.
    assert tracer.calls == {"rows": 4, "inner": 3, spans.ROOT: 1}
    assert tracer.self_s == {"inner": 3, "rows": 7, spans.ROOT: 5}


ALLOCATE_100_MIB = "block = bytearray(b'x') * (100 << 20)"


def _child_maxrss_mib(code: str) -> float:
    """``ru_maxrss`` of ``python -c code`` as ``run.py`` reads it.

    The reading is taken from a fresh ``run.py`` process, as in a benchmark
    run: a child's peak starts from its parent's, so a large test process
    would mask the child.
    """
    runner = textwrap.dedent(f"""
        import sys
        import run
        _, usage, _ = run._spawn([sys.executable, "-c", {code!r}], {{}})
        print(usage.ru_maxrss / 1024)
    """)
    done = subprocess.run([sys.executable, "-c", runner], cwd=HERE,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.split()[-1])


def test_peak_rss_from_wait4_sees_a_100_mib_child():
    assert _child_maxrss_mib("pass") < 50
    assert _child_maxrss_mib(ALLOCATE_100_MIB) >= 100
    reaps_grandchild = (
        "import subprocess, sys; "
        f"subprocess.run([sys.executable, '-c', {ALLOCATE_100_MIB!r}], "
        "check=True)")
    assert _child_maxrss_mib(reaps_grandchild) >= 100


def test_compare_verdicts():
    higher = {"better": "higher", "bound": 0.1}
    lower = {"better": "lower", "bound": 0.1}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(steady, steady, higher) == "agree"
    assert run.verdict(steady, [v * 0.8 for v in steady], higher) == "worse"
    assert run.verdict(steady, [v * 1.2 for v in steady], lower) == "worse"
    assert run.verdict(steady, [v * 1.2 for v in steady], higher) == "agree"
    assert run.verdict(steady, [50.0, 100.0, 150.0, 75.0, 125.0],
                       higher) == "unresolved"
    floored = {"better": "lower", "bound": 0.1, "floor": 0.1}
    assert run.verdict([0.02, 0.03, 0.02], [0.09, 0.1, 0.08],
                       floored) == "agree"
    exact = {"better": "lower", "bound": 0.0}
    assert run.verdict([0.25] * 5, [0.25] * 5, exact) == "agree"
    assert run.verdict([0.25] * 5, [0.25] * 4 + [0.5], exact) == "worse"
    assert run.verdict([1.0], [2.0], {"better": "lower"}) == "-"
