"""cdelint: rule fixtures, suppressions, JSON schema and exit codes.

The fixture corpus under ``tests/fixtures/lint/`` holds one known-bad and
one known-good snippet per rule (CDE003/CDE006 live under a
``repro/study/`` subtree because those rules are path-scoped;
CDE004/CDE007/CDE008 have one tree per verdict because entry points and
packages resolve by path suffix).  The whole-program machinery behind
CDE007–CDE009 has dedicated coverage in test_lint_effects.py, the
autofixer in test_lint_fix.py, the incremental cache in
test_lint_cache.py.
Bad fixtures are driven through the real CLI so exit codes and output
formats are covered end to end; the engine API is exercised directly for
finding-level assertions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import Finding, JSON_SCHEMA_VERSION, LintConfig, all_rules, \
    run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

#: The default-enabled rule set (what a plain run reports as rules_run).
ALL_RULES = ("CDE001", "CDE002", "CDE003", "CDE004", "CDE005", "CDE006",
             "CDE007", "CDE008", "CDE009", "CDE010", "CDE012", "CDE013")
#: Everything registered, including the opt-in CDE014 audit.
REGISTERED_RULES = ALL_RULES + ("CDE014",)

#: (rule, bad fixture, good fixture) — CDE004/CDE007/CDE008 and the
#: CDE012/CDE013 dataflow fixtures are whole trees because their entry
#: points / packages / scopes resolve by path.
RULE_FIXTURES = [
    ("CDE001", "cde001_bad.py", "cde001_good.py"),
    ("CDE002", "cde002_bad.py", "cde002_good.py"),
    ("CDE003", "repro/study/cde003_bad.py", "repro/study/cde003_good.py"),
    ("CDE004", "cde004_bad", "cde004_good"),
    ("CDE005", "cde005_bad.py", "cde005_good.py"),
    ("CDE006", "repro/study/cde006_bad.py", "repro/study/cde006_good.py"),
    ("CDE007", "cde007_bad", "cde007_good"),
    ("CDE008", "cde008_bad", "cde008_good"),
    ("CDE009", "cde009_bad.py", "cde009_good.py"),
    ("CDE010", "flow/cde010_bad.py", "flow/cde010_good.py"),
    ("CDE012", "flow/cde012_bad", "flow/cde012_good"),
    ("CDE013", "flow/cde013_bad", "flow/cde013_good"),
]

#: Findings each bad fixture must produce (a floor, not an exact count).
EXPECTED_MIN_FINDINGS = {
    "CDE001": 4, "CDE002": 4, "CDE003": 5, "CDE004": 2, "CDE005": 3,
    "CDE006": 3, "CDE007": 3, "CDE008": 2, "CDE009": 2, "CDE010": 2,
    "CDE012": 2, "CDE013": 2,
}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The incremental cache gets dedicated coverage in test_lint_cache.py;
    # here every run is cold so fixtures cannot interact through disk.
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", "--no-cache", *args],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )


# ---------------------------------------------------------------------------
# per-rule fixtures, through the real CLI
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule_id,bad,good", RULE_FIXTURES,
                         ids=[r for r, _, _ in RULE_FIXTURES])
def test_bad_fixture_fails_with_correct_rule_id(rule_id, bad, good):
    result = run_cli("--no-config", "--select", rule_id, str(FIXTURES / bad))
    assert result.returncode == 1, result.stdout + result.stderr
    assert rule_id in result.stdout
    findings = [line for line in result.stdout.splitlines()
                if f" {rule_id} " in line]
    assert len(findings) >= EXPECTED_MIN_FINDINGS[rule_id], result.stdout


@pytest.mark.parametrize("rule_id,bad,good", RULE_FIXTURES,
                         ids=[r for r, _, _ in RULE_FIXTURES])
def test_good_fixture_is_clean_under_all_rules(rule_id, bad, good):
    result = run_cli("--no-config", str(FIXTURES / good))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_bad_fixtures_do_not_trip_unrelated_rules():
    # Each bad fixture, run under every *other* rule, stays clean — the
    # corpus isolates one invariant per file.
    for rule_id, bad, _good in RULE_FIXTURES:
        others = ",".join(r for r in ALL_RULES if r != rule_id)
        result = run_cli("--no-config", "--select", others,
                         str(FIXTURES / bad))
        assert result.returncode == 0, (rule_id, result.stdout)


# ---------------------------------------------------------------------------
# finding details, through the engine API
# ---------------------------------------------------------------------------

def test_cde001_reports_symbol_and_location():
    report = run_lint([FIXTURES / "cde001_bad.py"], select=["CDE001"])
    assert not report.parse_errors
    by_symbol = {f.symbol for f in report.findings}
    assert "sample_timestamp" in by_symbol
    assert all(f.path.endswith("cde001_bad.py") for f in report.findings)
    assert all(f.line > 0 for f in report.findings)


def test_cde002_distinguishes_unseeded_from_global_draws():
    report = run_lint([FIXTURES / "cde002_bad.py"], select=["CDE002"])
    messages = " | ".join(f.message for f in report.findings)
    assert "unseeded random.Random()" in messages
    assert "random.randint" in messages


def test_cde003_flags_annotated_set_returning_call():
    report = run_lint([FIXTURES / "repro/study/cde003_bad.py"],
                      select=["CDE003"])
    symbols = {f.symbol for f in report.findings}
    assert "rows_from_annotated_return" in symbols


def test_cde004_reports_call_chain_from_entry():
    report = run_lint([FIXTURES / "cde004_bad"], select=["CDE004"])
    assert report.findings, "impure worker tree must be flagged"
    for finding in report.findings:
        assert "run_shard" in finding.message
    labels = " | ".join(f.message for f in report.findings)
    assert "os.environ" in labels
    assert "os.getpid" in labels


def test_cde006_names_the_missing_annotations():
    report = run_lint([FIXTURES / "repro/study/cde006_bad.py"],
                      select=["CDE006"])
    messages = {f.symbol: f.message for f in report.findings}
    assert "platform" in messages["measure"]
    assert "return" in messages["measure"]
    assert "row" in messages["Collector.add"]
    assert "Collector._internal" not in messages


# ---------------------------------------------------------------------------
# suppression comments
# ---------------------------------------------------------------------------

def test_line_suppressions_silence_only_the_waived_rules():
    result = run_cli("--no-config", str(FIXTURES / "suppressed.py"))
    assert result.returncode == 0, result.stdout

    # The same file minus suppressions does fail.
    report = run_lint([FIXTURES / "suppressed.py"],
                      select=["CDE001", "CDE005"])
    assert not report.findings  # engine honours them too


def test_suppression_is_rule_specific(tmp_path):
    snippet = tmp_path / "wrong_rule.py"
    snippet.write_text(
        "import time\n\n"
        "def f() -> float:\n"
        "    return time.time()  # cdelint: disable=CDE005\n"
    )
    report = run_lint([snippet], select=["CDE001"])
    assert len(report.findings) == 1  # waiving CDE005 does not cover CDE001


def test_file_level_suppression():
    result = run_cli("--no-config", str(FIXTURES / "suppressed_file.py"))
    assert result.returncode == 0, result.stdout


# ---------------------------------------------------------------------------
# JSON report schema and exit codes
# ---------------------------------------------------------------------------

def test_json_report_schema_on_bad_fixture():
    result = run_cli("--no-config", "--json", str(FIXTURES / "cde001_bad.py"))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["tool"] == "cdelint"
    assert payload["files_checked"] == 1
    assert payload["rules_run"] == sorted(ALL_RULES)
    assert payload["parse_errors"] == []
    assert payload["counts"]["CDE001"] == len(payload["findings"])
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "col", "message",
                                "symbol"}
        assert finding["rule"] == "CDE001"
    # Deterministic ordering: (path, line, col, rule).
    keys = [(f["path"], f["line"], f["col"], f["rule"])
            for f in payload["findings"]]
    assert keys == sorted(keys)


def test_json_report_clean_tree():
    result = run_cli("--no-config", "--json", str(FIXTURES / "cde001_good.py"))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["findings"] == []
    assert all(count == 0 for count in payload["counts"].values())


def test_sarif_output_matches_golden():
    result = run_cli("--no-config", "--format", "sarif",
                     str(Path("tests/fixtures/lint/cde001_bad.py")))
    assert result.returncode == 1
    produced = json.loads(result.stdout)
    golden = json.loads((FIXTURES / "sarif_expected.json").read_text())
    assert produced == golden
    run = produced["runs"][0]
    assert run["tool"]["driver"]["name"] == "cdelint"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == list(ALL_RULES)
    for res in run["results"]:
        region = res["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_clean_run_has_empty_results():
    result = run_cli("--no-config", "--format", "sarif",
                     str(FIXTURES / "cde001_good.py"))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["runs"][0]["results"] == []
    assert payload["version"] == "2.1.0"


def test_json_flag_conflicts_with_other_formats():
    result = run_cli("--json", "--format", "sarif", str(FIXTURES))
    assert result.returncode == 2
    result = run_cli("--json", "--format", "json",
                     str(FIXTURES / "cde001_good.py"))
    assert result.returncode == 0  # redundant but consistent


def test_exit_code_2_on_unknown_rule_and_missing_path(tmp_path):
    assert run_cli("--select", "CDE999", str(FIXTURES)).returncode == 2
    # A deleted rule is as unknown as one that never existed.
    for deleted in ("CDE011", "CDE015", "CDE016", "CDE017"):
        assert run_cli("--select", deleted, str(FIXTURES)).returncode == 2
    assert run_cli(str(tmp_path / "does-not-exist")).returncode == 2


def test_stats_prints_per_rule_timings_to_stderr(tmp_path):
    snippet = tmp_path / "clean.py"
    snippet.write_text("def f() -> int:\n    return 1\n")
    plain = run_cli("--no-config", "--json", str(snippet))
    stats = run_cli("--no-config", "--json", "--stats", str(snippet))
    assert stats.returncode == 0
    # stdout is byte-identical with and without the flag...
    assert stats.stdout == plain.stdout
    # ...and stderr carries one timing row per rule that ran, plus total.
    assert "per-rule analysis time" in stats.stderr
    for rule_id in ("CDE001", "CDE004", "total"):
        assert rule_id in stats.stderr
    assert "ms" in stats.stderr


def test_parse_error_reported_and_nonzero(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    result = run_cli("--no-config", str(broken))
    assert result.returncode == 1
    assert "syntax error" in result.stdout


def test_list_rules_covers_the_documented_set():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in REGISTERED_RULES:
        assert rule_id in result.stdout
    assert set(all_rules()) == set(REGISTERED_RULES)


class TestExplainResolution:
    def test_bare_number_resolves(self):
        result = run_cli("--explain", "12")
        assert result.returncode == 0
        assert result.stdout.startswith("CDE012  capture-safety")

    def test_rule_name_slug_resolves(self):
        result = run_cli("--explain", "error-provenance")
        assert result.returncode == 0
        assert result.stdout.startswith("CDE013")

    def test_underscored_slug_resolves(self):
        result = run_cli("--explain", "capture_safety")
        assert result.returncode == 0
        assert result.stdout.startswith("CDE012")

    def test_unknown_token_is_a_usage_error(self):
        result = run_cli("--explain", "no-such-rule")
        assert result.returncode == 2
        assert "unknown rule id" in result.stderr


# ---------------------------------------------------------------------------
# config and repo-tree gate
# ---------------------------------------------------------------------------

def test_pyproject_config_roundtrip(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        "[tool.cdelint]\n"
        'ordered-paths = ["mypkg/results/"]\n'
        'disable = ["CDE006"]\n'
    )
    config = LintConfig.from_pyproject(pyproject)
    assert config.ordered_paths == ("mypkg/results/",)
    assert config.disable == ("CDE006",)
    # Untouched knobs keep their defaults.
    assert config.shard_entries == (
        "repro/study/parallel.py::run_shard",
        "repro/study/parallel.py::stream_parallel_measurement._stream",
        "repro/study/measurement.py::measure_population",
    )

    with pytest.raises(ValueError):
        LintConfig.from_mapping({"no-such-knob": ["x"]})
    with pytest.raises(ValueError):
        LintConfig.from_mapping({"disable": "CDE001"})


@pytest.fixture(scope="module")
def src_graph():
    """The call graph of ``src/``, as the project rules see it."""
    from repro.lint.callgraph import CallGraph, summarize_module
    from repro.lint.module import load_module

    src = REPO_ROOT / "src"
    return CallGraph(
        summarize_module(load_module(path, path.relative_to(REPO_ROOT)
                                     .as_posix()))
        for path in sorted(src.rglob("*.py")))


def test_entry_specs_resolve_on_src(src_graph):
    # A stale spec resolves to nothing and silently checks nothing, so a
    # rename or deletion of an entry point must update the config too.
    config = LintConfig()
    specs = config.shard_entries + config.effect_roots
    assert specs
    stale = [spec for spec in specs if not src_graph.resolve_entry(spec)]
    assert stale == []


def _reached(src_graph, specs):
    return src_graph.reachable_with_chains(
        key for spec in specs for key in src_graph.resolve_entry(spec))


def test_shard_entries_reach_both_probe_paths(src_graph):
    # The lane hands measure_direct its probe as a closure and picks the
    # other measurers from the MEASURES table: run_shard reaches the fused
    # corridor, the structured prober and both indirect techniques only
    # through value-reference edges, with no entry point of their own.
    targets = [key
               for spec in ("repro/study/engine.py::_fused_probe",
                            "repro/core/prober.py::DirectProber.probe",
                            "repro/study/measurement.py::measure_via_smtp",
                            "repro/study/measurement.py::measure_via_browser",
                            "repro/core/prober.py::SmtpProber.trigger",
                            "repro/core/prober.py::BrowserProber.trigger")
               for key in src_graph.resolve_entry(spec)]
    assert len(targets) == 6
    config = LintConfig()
    for specs in (("repro/study/parallel.py::run_shard",),
                  config.shard_entries, config.effect_roots):
        reached = _reached(src_graph, specs)
        assert [key for key in targets if key not in reached] == []


def test_structured_probe_path_does_not_reach_the_lane(src_graph):
    # _query_authorities returns a local named ``step``; it is no edge to
    # ShardLane.step, so the structured prober's effect root does not
    # reach the lane or its fused corridor.
    root = src_graph.resolve_entry(
        "repro/core/prober.py::DirectProber._query_resilient")
    reached = src_graph.reachable_with_chains(root)
    assert "src/repro/resolver/iterative.py::IterativeResolver.resolve" \
        in reached
    assert not [key for key in reached
                if key.endswith(("::ShardLane.step", "::_fused_probe"))]


#: The hand-kept lists from before value references became call-graph
#: edges: callbacks and table entries had to be listed as roots of their
#: own.  Each still resolves, and the graph only gained edges since, so
#: what they reach now covers what they reached then.
HAND_LISTED = {
    "shard_entries": LintConfig().shard_entries + (
        "repro/study/measurement.py::measure_direct",
        "repro/study/measurement.py::measure_via_smtp",
        "repro/study/measurement.py::measure_via_browser",
        "repro/study/engine.py::ShardLane._direct_probe.fused",
        "repro/study/engine.py::ShardLane._direct_probe.fallback",
    ),
    "effect_roots": LintConfig().effect_roots + (
        "repro/study/engine.py::ShardLane._direct_probe.fused",
        "repro/study/engine.py::ShardLane._direct_probe.fallback",
    ),
}


@pytest.mark.parametrize("knob", sorted(HAND_LISTED))
def test_trimmed_entry_lists_keep_the_audited_surface(src_graph, knob):
    hand_listed = HAND_LISTED[knob]
    assert [spec for spec in hand_listed
            if not src_graph.resolve_entry(spec)] == []
    reached = _reached(src_graph, getattr(LintConfig(), knob))
    assert [key for key in _reached(src_graph, hand_listed)
            if key not in reached] == []


def test_deleted_config_keys_are_unknown():
    # A pyproject that still sets a deleted rule's knob fails loudly
    # instead of silently configuring nothing.
    for key in ("stream-entries", "bounded-allow", "hot-paths",
                "export-entries", "merge-entries"):
        with pytest.raises(ValueError,
                           match=r"unknown \[tool\.cdelint\] key"):
            LintConfig.from_mapping({key: ["repro/study/x.py::f"]})


def test_findings_are_value_objects():
    finding = Finding(path="a.py", line=3, col=0, rule_id="CDE001",
                      message="m")
    assert finding == Finding(path="a.py", line=3, col=0, rule_id="CDE001",
                              message="m")
    assert "CDE001" in finding.render()


def test_repository_tree_is_lint_clean():
    """The acceptance gate: `python -m repro.lint src/` exits 0."""
    result = run_cli("src")
    assert result.returncode == 0, result.stdout
    assert "clean" in result.stdout
