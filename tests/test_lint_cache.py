"""Incremental analysis cache: correctness under edits, never staleness.

Every test drives the real engine through :func:`repro.lint.run_lint`
with a tmp ``cache_dir`` and asserts on ``report.reanalyzed_files`` /
``report.effects_recomputed`` — diagnostics the engine exposes exactly
so cache behaviour is testable without timing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import LintConfig, run_lint
from repro.lint.cache import AnalysisCache, content_hash
from repro.lint.callgraph import ModuleSummary

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def make_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "repro" / "study"
    tree.mkdir(parents=True)
    (tree / "metrics.py").write_text(
        "def names() -> list[str]:\n"
        '    return ["a", "b"]\n'
    )
    (tree / "report.py").write_text(
        "from .metrics import names\n\n\n"
        "def rows() -> list[str]:\n"
        "    return [n for n in names()]\n"
    )
    return tmp_path


def test_warm_run_reanalyzes_nothing(tmp_path):
    tree = make_tree(tmp_path / "t")
    cache_dir = tmp_path / "cache"

    cold = run_lint([tree], cache_dir=cache_dir)
    assert len(cold.reanalyzed_files) == 2
    assert (cache_dir / "cache.json").is_file()

    warm = run_lint([tree], cache_dir=cache_dir)
    assert warm.reanalyzed_files == ()
    assert warm.effects_recomputed == ()
    assert warm.findings == cold.findings
    assert warm.files_checked == cold.files_checked


def test_report_json_is_independent_of_cache_temperature(tmp_path):
    tree = make_tree(tmp_path / "t")
    cache_dir = tmp_path / "cache"
    cold = run_lint([tree], cache_dir=cache_dir)
    warm = run_lint([tree], cache_dir=cache_dir)
    # The committed baseline must not depend on who ran first.
    assert warm.to_json() == cold.to_json()
    assert warm.to_json() == run_lint([tree]).to_json()  # cacheless too


def test_one_file_edit_reanalyzes_only_dependents(tmp_path):
    tree = make_tree(tmp_path / "t")
    cache_dir = tmp_path / "cache"
    run_lint([tree], cache_dir=cache_dir)

    # Touch the leaf: same defined names, new body.
    metrics = tree / "repro" / "study" / "metrics.py"
    metrics.write_text(
        "def names() -> list[str]:\n"
        '    return ["a", "b", "c"]\n'
    )
    warm = run_lint([tree], cache_dir=cache_dir)
    assert [Path(rel).name for rel in warm.reanalyzed_files] == ["metrics.py"]
    # Effect propagation re-ran for the edited file's functions and the
    # caller that can reach them — but not for unrelated functions.
    assert any(key.endswith("::names") for key in warm.effects_recomputed)
    assert any(key.endswith("::rows") for key in warm.effects_recomputed)


def test_set_returning_annotation_change_invalidates_other_files(tmp_path):
    tree = make_tree(tmp_path / "t")
    cache_dir = tmp_path / "cache"
    clean = run_lint([tree], cache_dir=cache_dir)
    assert clean.findings == []

    # names() now returns a set: report.py (unchanged bytes!) iterates it
    # on a result path, so CDE003 must fire there on the warm run.
    metrics = tree / "repro" / "study" / "metrics.py"
    metrics.write_text(
        "def names() -> set[str]:\n"
        '    return {"a", "b"}\n'
    )
    warm = run_lint([tree], cache_dir=cache_dir)
    assert any(
        f.rule_id == "CDE003" and f.path.endswith("report.py")
        for f in warm.findings
    ), warm.findings
    # And the verdict matches a cold run exactly.
    assert warm.findings == run_lint([tree]).findings


def test_new_effect_in_leaf_reaches_cached_caller(tmp_path):
    tree = tmp_path / "t" / "repro" / "study"
    tree.mkdir(parents=True)
    (tree / "helper.py").write_text(
        "def helper() -> int:\n    return 1\n")
    (tree / "parallel.py").write_text(
        "from .helper import helper\n\n\n"
        "def run_shard(task: object) -> int:\n"
        "    return helper()\n"
    )
    cache_dir = tmp_path / "cache"
    clean = run_lint([tmp_path / "t"], cache_dir=cache_dir)
    assert clean.findings == []

    (tree / "helper.py").write_text(
        "import time\n\n\ndef helper() -> int:\n"
        "    return int(time.time())\n"
    )
    warm = run_lint([tmp_path / "t"], cache_dir=cache_dir)
    assert [Path(rel).name for rel in warm.reanalyzed_files] == ["helper.py"]
    assert any(f.rule_id == "CDE007" for f in warm.findings), warm.findings
    assert warm.findings == run_lint([tmp_path / "t"]).findings



def test_table_edit_rebinds_the_reader_in_another_file(tmp_path):
    # run_shard reads a function table that another file defines; editing
    # only the table's contents changes run_shard's callees although
    # neither run_shard's file nor any function body changed.
    tree = tmp_path / "t" / "repro" / "study"
    tree.mkdir(parents=True)
    (tree / "helpers.py").write_text(
        "def quiet() -> str:\n    return \"\"\n\n\n"
        "def hints() -> str:\n    return open(\"hints.txt\").read()\n")
    table = tree / "table.py"
    table.write_text("from .helpers import hints, quiet\n\n"
                     "MEASURES = {\"a\": quiet}\n")
    (tree / "parallel.py").write_text(
        "from .table import MEASURES\n\n\n"
        "def run_shard(task: str) -> str:\n"
        "    return MEASURES[task]()\n")
    cache_dir = tmp_path / "cache"
    assert run_lint([tmp_path / "t"], cache_dir=cache_dir).findings == []

    table.write_text("from .helpers import hints, quiet\n\n"
                     "MEASURES = {\"a\": hints}\n")
    warm = run_lint([tmp_path / "t"], cache_dir=cache_dir)
    assert [Path(rel).name for rel in warm.reanalyzed_files] == ["table.py"]
    # CDE007 reads run_shard's propagated signature, which a cached
    # signature of the old binding would leave effect-free.
    assert [(f.rule_id, f.symbol) for f in warm.findings] == [
        ("CDE007", "hints")]
    assert warm.findings == run_lint([tmp_path / "t"]).findings

def test_method_moved_to_module_scope_unbinds_the_cached_caller(tmp_path):
    # ``task.read()`` binds only to methods named ``read``.  Moving the
    # impure method to module scope, while a same-named function lives in
    # another file, keeps every defined name the same, yet the caller in
    # the unchanged parallel.py loses its edge and its effect.
    tree = tmp_path / "t" / "repro" / "study"
    tree.mkdir(parents=True)
    (tree / "other.py").write_text(
        "def read() -> int:\n    return 0\n")
    worker = tree / "worker.py"
    worker.write_text(
        "class Worker:\n"
        "    def read(self) -> int:\n"
        "        return len(open(\"hints.txt\").readline())\n")
    (tree / "parallel.py").write_text(
        "def run_shard(task: object) -> int:\n"
        "    return task.read()\n")
    cache_dir = tmp_path / "cache"
    cold = run_lint([tmp_path / "t"], cache_dir=cache_dir)
    assert [f.rule_id for f in cold.findings] == ["CDE007"], cold.findings

    worker.write_text(
        "class Worker:\n"
        "    pass\n\n\n"
        "def read() -> int:\n"
        "    return len(open(\"hints.txt\").readline())\n")
    warm = run_lint([tmp_path / "t"], cache_dir=cache_dir)
    assert [Path(rel).name for rel in warm.reanalyzed_files] == ["worker.py"]
    cold_dir = tmp_path / "cold"
    assert warm.findings == run_lint([tmp_path / "t"],
                                     cache_dir=cold_dir).findings == []
    # No stale signature survives: run_shard's effect went with its edge.
    signatures = [
        json.loads((path / "cache.json").read_text())["effects"]["signatures"]
        for path in (cache_dir, cold_dir)]
    assert signatures[0] == signatures[1]


def test_deleting_one_of_two_same_named_functions_unbinds_the_caller(
        tmp_path):
    # run_shard's bare ``read()`` binds to both defs; deleting the impure
    # one leaves the name defined, yet run_shard loses that edge.
    tree = tmp_path / "t" / "repro" / "study"
    tree.mkdir(parents=True)
    (tree / "other.py").write_text(
        "def read() -> int:\n    return 0\n")
    helpers = tree / "helpers.py"
    helpers.write_text(
        "def read() -> int:\n"
        "    return len(open(\"hints.txt\").readline())\n\n\n"
        "def keep() -> int:\n    return 1\n")
    (tree / "parallel.py").write_text(
        "from .other import read\n\n\n"
        "def run_shard(task: object) -> int:\n"
        "    return read()\n")
    cache_dir = tmp_path / "cache"
    cold = run_lint([tmp_path / "t"], cache_dir=cache_dir)
    assert [f.rule_id for f in cold.findings] == ["CDE007"], cold.findings

    helpers.write_text("def keep() -> int:\n    return 1\n")
    warm = run_lint([tmp_path / "t"], cache_dir=cache_dir)
    cold_dir = tmp_path / "cold"
    assert warm.findings == run_lint([tmp_path / "t"],
                                     cache_dir=cold_dir).findings == []
    signatures = [
        json.loads((path / "cache.json").read_text())["effects"]["signatures"]
        for path in (cache_dir, cold_dir)]
    assert signatures[0] == signatures[1]


def test_corrupt_cache_degrades_to_cold_run(tmp_path):
    tree = make_tree(tmp_path / "t")
    cache_dir = tmp_path / "cache"
    cold = run_lint([tree], cache_dir=cache_dir)

    (cache_dir / "cache.json").write_text("{not json")
    recovered = run_lint([tree], cache_dir=cache_dir)
    assert len(recovered.reanalyzed_files) == 2  # full re-analysis
    assert recovered.findings == cold.findings
    # And the rewritten cache warms the next run again.
    assert run_lint([tree], cache_dir=cache_dir).reanalyzed_files == ()


def test_cache_rejects_stale_schema(tmp_path):
    tree = make_tree(tmp_path / "t")
    cache_dir = tmp_path / "cache"
    cold = run_lint([tree], cache_dir=cache_dir)
    fresh = json.loads((cache_dir / "cache.json").read_text())

    # A version-9 cache still carries the blob of the deleted replica
    # verdicts (CDE015); it must load as a cold run, not as an error.
    version_9 = dict(fresh, summary_version=9, sync={
        "digest": "0" * 16,
        "findings": [{"path": "a.py", "line": 1, "col": 0,
                      "rule": "CDE015", "message": "stale"}]})
    # A version-10 cache holds summaries without value references; reused,
    # they would drop every edge a function passed as a value makes.
    version_10 = dict(fresh, summary_version=10)
    for stale in (dict(fresh, summary_version=-1), version_9, version_10):
        (cache_dir / "cache.json").write_text(json.dumps(stale))
        rerun = run_lint([tree], cache_dir=cache_dir)
        assert len(rerun.reanalyzed_files) == 2
        assert rerun.findings == cold.findings
        assert "sync" not in json.loads(
            (cache_dir / "cache.json").read_text())


def test_config_change_invalidates_findings_not_summaries(tmp_path):
    tree = make_tree(tmp_path / "t")
    cache_dir = tmp_path / "cache"
    run_lint([tree], cache_dir=cache_dir)

    # A different config re-lints (findings key covers the config hash)
    # but still reuses the parsed summaries (no re-parse).
    scoped = LintConfig(ordered_paths=("nowhere/",))
    warm = run_lint([tree], config=scoped, cache_dir=cache_dir)
    assert warm.reanalyzed_files != ()  # re-linted for the new env
    cache = AnalysisCache(cache_dir)
    for rel in warm.reanalyzed_files:
        source = Path(rel).read_text() if Path(rel).is_absolute() else (
            Path.cwd() / rel).read_text()
        assert cache.lookup_summary(rel, content_hash(source)) is not None


def test_prune_is_an_explicit_maintenance_api(tmp_path):
    cache = AnalysisCache(tmp_path / "cache")
    cache.store_summary("a.py", "sha-a", ModuleSummary(rel="a.py"))
    cache.store_summary("b.py", "sha-b", ModuleSummary(rel="b.py"))
    cache.prune({"a.py"})
    cache.save()

    reloaded = AnalysisCache(tmp_path / "cache")
    assert reloaded.lookup_summary("a.py", "sha-a") is not None
    assert reloaded.lookup_summary("b.py", "sha-b") is None


def test_partial_tree_run_does_not_evict_other_subtrees(tmp_path):
    tree = make_tree(tmp_path / "t")
    cache_dir = tmp_path / "cache"
    run_lint([tree], cache_dir=cache_dir)

    # Linting a single file must leave the sibling's entries warm.
    single = tree / "repro" / "study" / "metrics.py"
    run_lint([single], cache_dir=cache_dir)
    assert run_lint([tree], cache_dir=cache_dir).reanalyzed_files == ()
