"""cdesync (CDE015/CDE016): traces, bindings, mutations, warm replay.

The fixture-level behaviour (bad pair fires / good pair is clean /
rule isolation) lives in test_lint_rules.py with the rest of the
corpus.  This file covers the machinery underneath — trace extraction,
binding resolution, the run digest — plus the acceptance
gate of the rule family: **single-statement mutation tests** that copy
the real ``src/repro`` tree, change exactly one statement on the
structured probe path, and assert the drift is caught with the expected
dual witness, byte-identically at any cache temperature.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.lint.callgraph import CallGraph, summarize_module
from repro.lint.config import LintConfig
from repro.lint.engine import _parse, iter_python_files
from repro.lint.sync import (SyncIndex, SyncTables, check_pair,
                             collect_bindings, resolve_dotted, sync_digest)
from repro.lint.trace import (extract_trace, module_dataclass_fields,
                              parse_replica_markers)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )


def summarize_tree(root: Path) -> dict:
    config = LintConfig()
    summaries = {}
    for path in iter_python_files([root], config):
        rel = path.as_posix()
        summaries[rel] = summarize_module(_parse(path, rel, path.read_text()))
    return summaries


# ---------------------------------------------------------------------------
# trace extraction
# ---------------------------------------------------------------------------

def _trace_of(source: str) -> list:
    tree = ast.parse(source)
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef))
    return extract_trace(func)


def _flatten(node: list, out: list) -> list:
    kind = node[0]
    if kind in ("call", "mut", "layout"):
        out.append(node)
    elif kind in ("seq", "alt"):
        for child in node[1]:
            _flatten(child, out)
    elif kind == "loop":
        _flatten(node[1], out)
    elif kind == "while":
        _flatten(node[1], out)
        _flatten(node[2], out)
    elif kind == "try":
        _flatten(node[1], out)
        for handler in node[2]:
            _flatten(handler, out)
    return out


def test_empty_setdefault_is_not_a_mutation():
    trace = _trace_of(
        "def f(log, key, row):\n"
        "    log._by_suffix.setdefault(key, [])\n"
        "    log._by_suffix.setdefault(key, []).append(row)\n"
    )
    leaves = _flatten(trace, [])
    # Warming an empty slot is silent; the append through it is not.
    assert [leaf[0] for leaf in leaves] == ["mut"]
    assert leaves[0][1] == ["log", "_by_suffix", "setdefault"]


def test_obj_new_layout_records_class_and_field_order():
    source = (
        "_obj_new = object.__new__\n"
        "_obj_setattr = object.__setattr__\n"
        "def f(name, ttl):\n"
        "    record = _obj_new(Record)\n"
        "    _obj_setattr(record, '__dict__', {'name': name, 'ttl': ttl})\n"
        "    return record\n"
    )
    tree = ast.parse(source)
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef))
    trace = extract_trace(func, objnew=frozenset({"_obj_new"}),
                          objsetattr=frozenset({"_obj_setattr"}))
    leaves = _flatten(trace, [])
    layouts = [leaf for leaf in leaves if leaf[0] == "layout"]
    assert layouts == [["layout", "Record", ["name", "ttl"], 5]]


def test_replica_markers_bind_def_line_or_line_above():
    source = (
        "# cdelint: replica-of=pkg.mod.Cls.meth\n"
        "def above():\n"
        "    pass\n"
        "def on_line():  # cdelint: replica-of=pkg.mod.other\n"
        "    pass\n"
    )
    markers = parse_replica_markers(source)
    assert markers == {1: "pkg.mod.Cls.meth", 4: "pkg.mod.other"}


def test_dataclass_fields_skip_classvars():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "@dataclass\n"
        "class Row:\n"
        "    kind: ClassVar[str] = 'row'\n"
        "    qname: str\n"
        "    shard: int\n"
    )
    assert module_dataclass_fields(tree) == {"Row": ("qname", "shard")}


# ---------------------------------------------------------------------------
# binding resolution and the run digest, over the real tree
# ---------------------------------------------------------------------------

def test_engine_replicas_resolve_against_the_real_tree():
    summaries = summarize_tree(SRC)
    bindings, errors = collect_bindings(summaries, LintConfig())
    assert not errors
    assert len(bindings) >= 5
    assert all(binding.checked for binding in bindings)
    originals = {binding.original_key.split("::", 1)[1]
                 for binding in bindings}
    assert "ResolutionPlatform.resolve_for_client" in originals
    assert "DirectProber.probe" in originals
    key = resolve_dotted(summaries,
                         "repro.resolver.platform.ResolutionPlatform"
                         ".resolve_for_client")
    assert key is not None and key.endswith(
        "::ResolutionPlatform.resolve_for_client")


def test_all_real_pairs_prove_inclusion():
    config = LintConfig()
    summaries = summarize_tree(SRC)
    graph = CallGraph(summaries.values())
    bindings, _errors = collect_bindings(summaries, config)
    index = SyncIndex(summaries, graph, SyncTables.from_config(config),
                      bindings)
    for binding in bindings:
        assert check_pair(index, binding) is None, binding.replica_key


def test_sync_digest_tracks_traces_and_layouts(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class S:\n"
        "    def probe(self):\n"
        "        self.stats.queries += 1\n"
    )
    config = LintConfig()
    before = sync_digest(summarize_tree(tmp_path), config)
    assert before == sync_digest(summarize_tree(tmp_path), config)
    (tmp_path / "mod.py").write_text(
        "class S:\n"
        "    def probe(self):\n"
        "        self.stats.hits += 1\n"
    )
    assert sync_digest(summarize_tree(tmp_path), config) != before


# ---------------------------------------------------------------------------
# CDE014 audit scope: sync findings suppress and account like any other
# ---------------------------------------------------------------------------

def test_cde015_suppressions_participate_in_the_audit(tmp_path):
    from repro.lint import run_lint

    fixture = REPO_ROOT / "tests" / "fixtures" / "lint" / "sync" / \
        "cde015_bad"
    shutil.copytree(fixture, tmp_path / "tree")
    fused = tmp_path / "tree" / "syncdemo" / "fused.py"
    source = fused.read_text()
    # Waive one drift finding in place; park a second waiver on a line
    # with no finding so the audit has something to condemn.
    source = source.replace(
        "def fused_resolve(resolver, name):",
        "def fused_resolve(resolver, name):  # cdelint: disable=CDE015")
    source = source.replace(
        "def fused_jitter(resolver):",
        "def fused_jitter(resolver):\n"
        "    _unused = 0  # cdelint: disable=CDE015")
    fused.write_text(source)

    cache = tmp_path / "cache"
    cold = run_lint([tmp_path / "tree"], select=["CDE015", "CDE014"],
                    warn_unused_suppressions=True, cache_dir=cache)
    warm = run_lint([tmp_path / "tree"], select=["CDE015", "CDE014"],
                    warn_unused_suppressions=True, cache_dir=cache)
    by_rule = {}
    for finding in cold.findings:
        by_rule.setdefault(finding.rule_id, []).append(finding)
    # fused_resolve's drift is waived; the jitter drift and the stale
    # binding still report; the no-op waiver is condemned by the audit.
    assert len(by_rule.get("CDE015", ())) == 2
    assert len(by_rule.get("CDE014", ())) == 1
    assert warm.findings == cold.findings


# ---------------------------------------------------------------------------
# mutation tests over a copy of the real tree (the acceptance gate)
# ---------------------------------------------------------------------------

def _copy_src(tmp_path: Path) -> Path:
    target = tmp_path / "src"
    shutil.copytree(SRC / "repro", target / "repro")
    return target


def _mutate(path: Path, old: str, new: str) -> None:
    source = path.read_text()
    assert source.count(old) == 1, f"ambiguous mutation anchor in {path}"
    path.write_text(source.replace(old, new))


def test_cde015_catches_dropped_stat_increment_in_probe_path(tmp_path):
    """Deleting one stat bump from resolve_for_client is replica drift."""
    root = _copy_src(tmp_path)
    _mutate(root / "repro/resolver/platform.py",
            "        self.stats.queries += 1\n", "")
    result = run_cli("--no-cache", "--no-config", "--select", "CDE015",
                     "--json", str(root))
    assert result.returncode == 1, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    findings = payload["findings"]
    assert findings and all(f["rule"] == "CDE015" for f in findings)
    # Dual witness: the diverging replica effect with its hop chain, and
    # what the original expects instead.
    messages = " | ".join(f["message"] for f in findings)
    assert "replica effect mut:queries" in messages
    assert "original expects" in messages
    assert "resolve_for_client" in messages


def test_cde016_catches_dataclass_field_reorder(tmp_path):
    """Swapping two CacheEntry fields breaks every fused __dict__ site."""
    root = _copy_src(tmp_path)
    _mutate(root / "repro/cache/entry.py",
            "    stored_at: float\n    expires_at: float\n",
            "    expires_at: float\n    stored_at: float\n")
    result = run_cli("--no-cache", "--no-config", "--select", "CDE016",
                     "--json", str(root))
    assert result.returncode == 1, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    findings = payload["findings"]
    assert len(findings) >= 2
    messages = " | ".join(f["message"] for f in findings)
    assert "CacheEntry" in messages
    assert "declaration order" in messages
    assert all(f["path"].endswith("study/engine.py") for f in findings)


def test_cde015_verdicts_replay_byte_identically_warm(tmp_path):
    """Cold and warm runs agree byte-for-byte, clean or drifted."""
    root = _copy_src(tmp_path)
    cache_dir = str(tmp_path / "lintcache")
    args = ("--no-config", "--select", "CDE015,CDE016",
            "--cache-dir", cache_dir, str(root))
    clean_cold = run_cli(*args)
    clean_warm = run_cli(*args)
    assert clean_cold.returncode == clean_warm.returncode == 0
    assert clean_cold.stdout == clean_warm.stdout

    # A trace-affecting edit invalidates the digest: the warm run
    # recomputes and finds the drift instead of replaying the old verdict.
    _mutate(root / "repro/resolver/platform.py",
            "        self.stats.queries += 1\n", "")
    drift_cold = run_cli(*args)
    drift_warm = run_cli(*args)
    assert drift_cold.returncode == drift_warm.returncode == 1
    assert drift_cold.stdout == drift_warm.stdout
    assert "mut:queries" in drift_cold.stdout
