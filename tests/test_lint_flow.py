"""cdeflow: dataflow primitives, taint rules, CDE014 and --changed.

Covers the four layers the dataflow subsystem adds on top of the classic
rule engine:

* :func:`repro.lint.dataflow.analyze_function` — intraprocedural flow
  edges, explicit-flow policy (comparisons classify, ``len`` counts),
  handler shapes;
* the interprocedural fixpoint behind CDE010 (cross-function witness
  chains, sanitizer cuts, cycle convergence);
* cache semantics — taint findings must be byte-identical at any cache
  temperature, and an edit to a *callee* must flip a *caller's*
  project-rule finding even when the caller's per-module cache is warm;
* the satellite modes: the CDE014 unused-suppression audit and the
  ``--changed`` dirty-subgraph report filter.

Fixture corpus: ``tests/fixtures/lint/flow/`` (positive source→sink,
sanitized negative, cross-function, cycle); the per-rule bad/good pairs
are additionally driven through the CLI in test_lint_rules.py.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import run_lint
from repro.lint.dataflow import analyze_function

REPO_ROOT = Path(__file__).resolve().parent.parent
FLOW = REPO_ROOT / "tests" / "fixtures" / "lint" / "flow"


def _first_func(source: str) -> ast.FunctionDef:
    tree = ast.parse(source)
    func = tree.body[0]
    assert isinstance(func, ast.FunctionDef)
    return func


def _flow(source: str):
    return analyze_function(_first_func(source), aliases={})


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", "--no-cache", *args],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )


# ---------------------------------------------------------------------------
# intraprocedural primitives
# ---------------------------------------------------------------------------

def test_param_to_return_edge_with_hops():
    result = _flow(
        "def f(latency):\n"
        "    value = latency\n"
        "    out = value\n"
        "    return out\n"
    )
    edges = [e for e in result.flows if e.sink == "return"]
    assert len(edges) == 1
    assert edges[0].src == "param:latency"
    assert edges[0].hops == ("value@2", "out@3")


def test_candidate_attr_read_becomes_origin_and_site():
    result = _flow(
        "def f(probe):\n"
        "    return probe.rtt\n"
    )
    assert any(e.src == "attr:probe.rtt" and e.sink == "return"
               for e in result.flows)


def test_comparison_result_is_clean():
    # A bool verdict is a classification, not the measured value.
    result = _flow(
        "def f(probe, threshold):\n"
        "    slow = probe.rtt > threshold\n"
        "    return slow\n"
    )
    assert not any(e.src == "attr:probe.rtt" and e.sink == "return"
                   for e in result.flows)


def test_len_is_a_count_not_the_data():
    result = _flow(
        "def f(probe):\n"
        "    samples = [probe.rtt]\n"
        "    return len(samples)\n"
    )
    returned = [e for e in result.flows if e.sink == "return"]
    assert all(e.src != "attr:probe.rtt" for e in returned)


def test_mutator_method_taints_its_receiver():
    result = _flow(
        "def f(probe):\n"
        "    samples = []\n"
        "    samples.append(probe.rtt)\n"
        "    return samples\n"
    )
    assert any(e.src == "attr:probe.rtt" and e.sink == "return"
               for e in result.flows)


def test_call_arguments_become_arg_edges():
    result = _flow(
        "def f(latency):\n"
        "    emit(latency, level=latency)\n"
    )
    sinks = {e.sink for e in result.flows if e.src == "param:latency"}
    assert sinks == {"arg:emit:0", "arg:emit:k=level"}


def test_params_marker_separates_keyword_only():
    result = _flow("def f(a, b, *, c):\n    return a\n")
    assert result.params == ("a", "b", "*", "c")


def test_handler_shapes():
    result = _flow(
        "def f(prober):\n"
        "    try:\n"
        "        return prober.query()\n"
        "    except QueryTimeout:\n"
        "        pass\n"
        "    try:\n"
        "        return prober.query()\n"
        "    except ProbeFailure as failure:\n"
        "        record(failure.attempt_count)\n"
        "        raise\n"
    )
    assert len(result.handlers) == 2
    silent = next(h for h in result.handlers if "QueryTimeout" in h.types)
    assert silent.silent and not silent.reraises and not silent.uses_bound
    kept = next(h for h in result.handlers if "ProbeFailure" in h.types)
    assert not kept.silent and kept.reraises and kept.uses_bound


def test_free_reads_and_mutations_are_recorded():
    result = _flow(
        "def f(key):\n"
        "    _TABLE[key] = _COUNTER\n"
        "    _ROWS.append(key)\n"
    )
    assert "_COUNTER" in result.free_reads
    assert {"_TABLE", "_ROWS"} <= result.free_mutations


# ---------------------------------------------------------------------------
# interprocedural CDE010: witness chains, sanitizers, cycles
# ---------------------------------------------------------------------------

def test_cross_function_flow_carries_witness_chain():
    report = run_lint([FLOW / "cde010_bad.py"], select=["CDE010"])
    assert not report.parse_errors
    cross = [f for f in report.findings if f.symbol == "estimate_cross"]
    assert len(cross) == 1
    message = cross[0].message
    assert "result.rtt" in message                  # the source
    assert "estimate_from_occupancy" in message     # the sink
    assert "collect_rtts()" in message              # the call hop


def test_sanitizer_cuts_the_flow():
    report = run_lint([FLOW / "cde010_good.py"], select=["CDE010"])
    assert report.findings == []


def test_cycle_converges_and_reports_once():
    report = run_lint([FLOW / "cycle.py"], select=["CDE010"])
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.symbol == "export"
    assert "result.rtt" in finding.message
    assert "relay_a()" in finding.message


# ---------------------------------------------------------------------------
# cache semantics
# ---------------------------------------------------------------------------

def _write_leaky_pair(tmp_path: Path) -> tuple[Path, Path]:
    helper = tmp_path / "helper.py"
    helper.write_text(
        "def collect(results):\n"
        "    return [r.rtt for r in results]\n"
    )
    main = tmp_path / "main.py"
    main.write_text(
        "def export(results):\n"
        "    return report_to_dict(collect(results))\n"
    )
    return helper, main


def test_taint_findings_identical_cold_and_warm(tmp_path):
    helper, main = _write_leaky_pair(tmp_path)
    cache = tmp_path / "cache"
    cold = run_lint([helper, main], select=["CDE010"], cache_dir=cache)
    warm = run_lint([helper, main], select=["CDE010"], cache_dir=cache)
    assert cold.findings  # the planted leak is found at all
    assert json.dumps(cold.to_json(), sort_keys=True) == \
        json.dumps(warm.to_json(), sort_keys=True)
    assert warm.reanalyzed_files == ()  # nothing was re-parsed


def test_callee_edit_flips_cached_caller_finding(tmp_path):
    # Editing only the callee must clear the caller's CDE010 finding,
    # even though the caller's per-module cache entry stays warm: taint
    # summaries re-propagate project-wide from summaries every run.
    helper, main = _write_leaky_pair(tmp_path)
    cache = tmp_path / "cache"
    first = run_lint([helper, main], select=["CDE010"], cache_dir=cache)
    assert any(f.path.endswith("main.py") for f in first.findings)

    helper.write_text(
        "def collect(results):\n"
        "    ordered = [r.rtt for r in results]\n"
        "    return is_miss(ordered)\n"     # sanitizer: returns a verdict
    )
    second = run_lint([helper, main], select=["CDE010"], cache_dir=cache)
    assert second.findings == []
    assert [Path(rel).name for rel in second.reanalyzed_files] == ["helper.py"]


# ---------------------------------------------------------------------------
# CDE014: unused-suppression audit
# ---------------------------------------------------------------------------

def _write_suppressed(tmp_path: Path) -> Path:
    target = tmp_path / "waivers.py"
    target.write_text(
        "import time  # cdelint: disable=CDE008\n"       # waives nothing
        "\n"
        "\n"
        "def now():\n"
        "    return time.time()  # cdelint: disable=CDE001\n"  # used
    )
    return target


def test_unused_suppression_flagged_used_one_spared(tmp_path):
    target = _write_suppressed(tmp_path)
    report = run_lint([target], warn_unused_suppressions=True)
    assert [f.rule_id for f in report.findings] == ["CDE014"]
    finding = report.findings[0]
    assert finding.line == 1
    assert "CDE008" in finding.message
    assert "CDE014" in report.rules_run


def test_audit_off_by_default(tmp_path):
    target = _write_suppressed(tmp_path)
    report = run_lint([target])
    assert not any(f.rule_id == "CDE014" for f in report.findings)
    assert "CDE014" not in report.rules_run


def test_audit_covers_only_rules_that_ran(tmp_path):
    # A CDE008 waiver cannot be condemned by a run that never ran CDE008.
    target = _write_suppressed(tmp_path)
    report = run_lint([target], select=["CDE001", "CDE014"])
    assert report.findings == []


def test_file_level_unused_suppression(tmp_path):
    target = tmp_path / "filewide.py"
    target.write_text(
        "# cdelint: disable-file=CDE005\n"
        "def f():\n"
        "    return 1\n"
    )
    report = run_lint([target], warn_unused_suppressions=True)
    assert [f.rule_id for f in report.findings] == ["CDE014"]
    assert report.findings[0].line == 1
    assert "file-wide" in report.findings[0].message


def test_unknown_rule_suppression_flagged(tmp_path):
    # A waiver naming no registered rule can never waive anything, so the
    # audit reports it even when the run selects a single rule.
    target = tmp_path / "stale.py"
    target.write_text(
        "def f():\n"
        "    return 1  # cdelint: disable=CDE099\n"
    )
    for kwargs in ({"warn_unused_suppressions": True},
                   {"select": ["CDE001", "CDE014"]}):
        report = run_lint([target], **kwargs)
        assert [(f.rule_id, f.line) for f in report.findings] == \
            [("CDE014", 2)]
        assert "CDE099" in report.findings[0].message
        assert "no such rule" in report.findings[0].message


def test_audit_identical_cold_and_warm(tmp_path):
    target = _write_suppressed(tmp_path)
    cache = tmp_path / "cache"
    cold = run_lint([target], warn_unused_suppressions=True,
                    cache_dir=cache)
    warm = run_lint([target], warn_unused_suppressions=True,
                    cache_dir=cache)
    assert warm.reanalyzed_files == ()
    assert json.dumps(cold.to_json(), sort_keys=True) == \
        json.dumps(warm.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# --changed: dirty-subgraph report filtering
# ---------------------------------------------------------------------------

def _write_call_pair(tmp_path: Path) -> tuple[Path, Path]:
    callee = tmp_path / "callee.py"
    callee.write_text(
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import time\n"
        "\n"
        "\n"
        "def wrap():\n"
        "    return stamp()\n"
        "\n"
        "\n"
        "def own():\n"
        "    return time.monotonic()\n"
    )
    return callee, caller


def test_changed_scope_includes_dirty_subgraph_callers(tmp_path):
    callee, caller = _write_call_pair(tmp_path)
    full = run_lint([callee, caller], select=["CDE001"])
    assert len(full.findings) == 2
    callee_rel = next(f.path for f in full.findings
                      if f.path.endswith("callee.py"))

    # Changing only the callee keeps the caller's file in scope (its
    # functions transitively call into the dirty file) — both findings.
    report = run_lint([callee, caller], select=["CDE001"],
                      changed_only=[callee_rel])
    assert len(report.findings) == 2
    assert report.changed_scope is not None
    assert any(rel.endswith("caller.py") for rel in report.changed_scope)


def test_changed_scope_excludes_unrelated_files(tmp_path):
    callee, caller = _write_call_pair(tmp_path)
    full = run_lint([callee, caller], select=["CDE001"])
    caller_rel = next(f.path for f in full.findings
                      if f.path.endswith("caller.py"))

    # Changing only the caller: the callee has no functions calling into
    # it, so the callee's finding is filtered out of the report.
    report = run_lint([callee, caller], select=["CDE001"],
                      changed_only=[caller_rel])
    assert [f.path for f in report.findings] == [caller_rel]


# ---------------------------------------------------------------------------
# CLI satellites: --explain, --changed plumbing
# ---------------------------------------------------------------------------

def test_explain_prints_rationale():
    result = run_cli("--explain", "CDE010")
    assert result.returncode == 0
    assert "timing-taint" in result.stdout
    assert "Rationale" in result.stdout
    assert "Fix guidance" in result.stdout


def test_explain_is_case_insensitive_and_rejects_unknown():
    assert run_cli("--explain", "cde013").returncode == 0
    result = run_cli("--explain", "CDE999")
    assert result.returncode == 2
    assert "unknown rule id" in result.stderr


def test_changed_flag_reports_scope_note():
    # In this repo's checkout the flag must at minimum run and report
    # the scope banner or the nothing-to-do message.
    result = run_cli("--changed", "src")
    assert result.returncode in (0, 1)
    assert "cdelint" in result.stdout
