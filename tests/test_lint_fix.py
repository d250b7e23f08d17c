"""``--fix`` autofixer: goldens, idempotency, safety guards.

The fixture tree under ``tests/fixtures/lint/fix/`` is copied to a tmp
dir before fixing (fixes rewrite files in place); the committed goldens
pin both the dry-run unified diff and the fixed source byte-for-byte.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.lint import FIXABLE_RULES, run_lint
from repro.lint.fix import apply_fixes, plan_fixes, render_diff

REPO_ROOT = Path(__file__).resolve().parent.parent
FIX_FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint" / "fix"


def copy_tree(tmp_path: Path) -> Path:
    target = tmp_path / "tree"
    shutil.copytree(FIX_FIXTURES / "repro", target / "repro")
    return target


def test_dry_run_diff_matches_golden(tmp_path, monkeypatch):
    tree = copy_tree(tmp_path)
    monkeypatch.chdir(tree)  # rel paths in diff headers stay stable
    fixes = [f for f in plan_fixes(["repro"]) if f.changed]
    assert len(fixes) == 1
    golden = (FIX_FIXTURES / "needs_fix.expected.diff").read_text()
    assert render_diff(fixes) == golden
    # Dry run never writes.
    assert (tree / "repro" / "study" / "needs_fix.py").read_text() == (
        FIX_FIXTURES / "repro" / "study" / "needs_fix.py").read_text()


def test_apply_matches_golden_and_is_idempotent(tmp_path, monkeypatch):
    tree = copy_tree(tmp_path)
    monkeypatch.chdir(tree)
    first = [f for f in plan_fixes(["repro"]) if f.changed]
    assert apply_fixes(first) == 1

    fixed = (tree / "repro" / "study" / "needs_fix.py").read_text()
    assert fixed == (FIX_FIXTURES / "needs_fix.expected.py").read_text()

    # Applying again finds nothing: --fix twice produces a zero diff.
    second = [f for f in plan_fixes(["repro"]) if f.changed]
    assert second == []

    # And the fixed tree is clean under every fixable rule.
    report = run_lint([tree], select=list(FIXABLE_RULES))
    assert report.findings == []


def test_fix_notes_name_each_rewrite(tmp_path, monkeypatch):
    tree = copy_tree(tmp_path)
    monkeypatch.chdir(tree)
    notes = [note for fix in plan_fixes(["repro"]) for note in fix.notes]
    joined = " | ".join(notes)
    assert "wrapped set iterable in sorted(...)" in joined
    assert "None-and-construct" in joined
    assert "annotated announce(count: int, label: str, -> None)" in joined


def test_fix_respects_suppressions(tmp_path):
    tree = tmp_path / "repro" / "study"
    tree.mkdir(parents=True)
    snippet = tree / "waived.py"
    snippet.write_text(
        "def rows(sources: list[str]) -> list[str]:\n"
        "    return [x for x in set(sources)]  # cdelint: disable=CDE003\n"
    )
    fixes = [f for f in plan_fixes([tmp_path]) if f.changed]
    assert fixes == []  # a waived finding is never "fixed"


def test_fix_skips_non_inferable_annotations(tmp_path):
    tree = tmp_path / "repro" / "study"
    tree.mkdir(parents=True)
    snippet = tree / "opaque.py"
    source = (
        "def measure(platform, rows=None):\n"
        "    return platform.run(rows)\n"
    )
    snippet.write_text(source)
    fixes = [f for f in plan_fixes([tmp_path]) if f.changed]
    # Neither the parameter types nor the return type are inferable from
    # literals, so the fixer must leave the finding for a human.
    assert fixes == []
    assert snippet.read_text() == source


def test_fixable_rules_are_the_documented_subset():
    assert FIXABLE_RULES == ("CDE003", "CDE005", "CDE006")

