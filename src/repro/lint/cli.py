"""Command-line front end: ``python -m repro.lint [paths]``.

Exit codes: ``0`` clean, ``1`` findings (or parse errors), ``2`` usage /
configuration errors — the convention CI and the committed
``LINT_baseline.json`` rely on.  ``--fix`` applies the mechanical
autofixes (CDE003/CDE005/CDE006) and exits 0 when everything it touched
is fixed; ``--fix --diff`` prints the unified diff without writing.
"""

from __future__ import annotations

import argparse
import inspect
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from .cache import DEFAULT_CACHE_DIR
from .config import LintConfig, find_pyproject
from .engine import run_lint
from .findings import LintReport
from .fix import FIXABLE_RULES, apply_fixes, plan_fixes, render_diff
from .registry import all_rules
from .sarif import to_sarif

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

FORMATS = ("human", "json", "sarif")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "cdelint — determinism & measurement-integrity linter for the "
            "Counting-in-the-Dark reproduction (rules: docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=None, dest="format",
        help="report format on stdout (default: human)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule IDs to run (default: all registered)",
    )
    parser.add_argument(
        "--config", metavar="PYPROJECT", type=Path,
        help="pyproject.toml to read [tool.cdelint] from "
             "(default: nearest to the first path)",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore pyproject.toml and use built-in defaults",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", type=Path, default=None,
        help=f"incremental-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help=f"apply mechanical autofixes ({', '.join(FIXABLE_RULES)}) "
             f"and exit",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="with --fix: print the unified diff instead of writing files",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print a rule's rationale and fix guidance, then exit "
             "(accepts CDE012, a bare 12, or a name like "
             "capture-safety)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="report only findings in git-dirty files and the files "
             "whose functions transitively call into them",
    )
    parser.add_argument(
        "--warn-unused-suppressions", action="store_true",
        help="flag suppression comments that waived no finding (CDE014)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print a per-rule timing breakdown to stderr after the run "
             "(stdout report stays byte-identical)",
    )
    return parser


def _load_config(args: argparse.Namespace) -> LintConfig:
    if args.no_config:
        return LintConfig()
    pyproject: Optional[Path] = args.config
    if pyproject is None:
        pyproject = find_pyproject(Path(args.paths[0]).resolve())
    if pyproject is None:
        return LintConfig()
    return LintConfig.from_pyproject(pyproject)


def _run_fix(args: argparse.Namespace, config: LintConfig,
             select: Optional[list[str]]) -> int:
    fixes = plan_fixes(args.paths, config=config, select=select)
    changed = [fix for fix in fixes if fix.changed]
    if args.diff:
        sys.stdout.write(render_diff(changed))
        print(f"cdelint --fix: would rewrite {len(changed)} file(s)"
              if changed else "cdelint --fix: nothing to fix")
        return EXIT_CLEAN
    written = apply_fixes(changed)
    for fix in changed:
        for note in fix.notes:
            print(note)
    print(f"cdelint --fix: rewrote {written} file(s)"
          if written else "cdelint --fix: nothing to fix")
    return EXIT_CLEAN


def _resolve_rule(token: str) -> Optional[str]:
    """``CDE012``, a bare ``12`` or a ``rule-name`` slug -> registry id."""
    registry = all_rules()
    wanted = token.strip().upper()
    if wanted in registry:
        return wanted
    if wanted.isdigit():
        padded = f"CDE{int(wanted):03d}"
        if padded in registry:
            return padded
    slug = token.strip().lower().replace("_", "-")
    for rule_id, rule_cls in registry.items():
        if rule_cls.name.lower().replace("_", "-") == slug:
            return rule_id
    return None


def _explain(rule_id: str) -> int:
    """Print one rule's docstring (rationale, examples, fix guidance)."""
    registry = all_rules()
    wanted = _resolve_rule(rule_id)
    rule_cls = registry.get(wanted) if wanted is not None else None
    if wanted is None or rule_cls is None:
        known = ", ".join(registry)
        print(f"cdelint: error: unknown rule id {rule_id!r} (known: {known})",
              file=sys.stderr)
        return EXIT_USAGE
    print(f"{wanted}  {rule_cls.name}")
    print(f"  {rule_cls.summary}")
    doc = inspect.getdoc(rule_cls)
    if doc:
        print()
        for line in doc.splitlines():
            print(f"  {line}" if line else "")
    return EXIT_CLEAN


def _git_changed_rels() -> frozenset[str]:
    """Rel paths of git-dirty ``.py`` files (staged, unstaged, untracked).

    Paths come out of ``git status --porcelain`` relative to the repo
    root; they are re-relativised against the working directory so they
    match the rel paths the engine reports.
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--no-renames"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise ValueError(f"--changed requires a git checkout: {exc}") from exc
    rels: set[str] = set()
    cwd = Path.cwd().resolve()
    for line in status.splitlines():
        if len(line) < 4:
            continue
        candidate = line[3:].strip().strip('"')
        if not candidate.endswith(".py"):
            continue
        absolute = (Path(top) / candidate).resolve()
        try:
            rels.add(absolute.relative_to(cwd).as_posix())
        except ValueError:
            rels.add(absolute.as_posix())
    return frozenset(rels)


def _print_stats(report: LintReport) -> None:
    """Per-rule timing breakdown (``--stats``), slowest first, to stderr.

    Stderr so the stdout report — human, ``--json`` or ``--format
    sarif`` — stays byte-identical with and without the flag; CI's
    cold/warm identity check composes with ``--stats`` for free.
    """
    timings = report.rule_timings
    total = sum(timings.values())
    print("cdelint --stats: per-rule analysis time "
          f"({report.files_checked} file(s))", file=sys.stderr)
    ranked = sorted(timings.items(), key=lambda kv: (-kv[1], kv[0]))
    for rule_id, seconds in ranked:
        share = 100.0 * seconds / total if total else 0.0
        print(f"  {rule_id:<8} {seconds * 1000.0:9.2f} ms  {share:5.1f}%",
              file=sys.stderr)
    print(f"  {'total':<8} {total * 1000.0:9.2f} ms", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.as_json and args.format not in (None, "json"):
        print("cdelint: error: --json conflicts with --format "
              f"{args.format}", file=sys.stderr)
        return EXIT_USAGE
    fmt = args.format or ("json" if args.as_json else "human")

    if args.list_rules:
        for rule_id, rule_cls in all_rules().items():
            print(f"{rule_id}  {rule_cls.name:<22} {rule_cls.summary}")
        return EXIT_CLEAN
    if args.explain:
        return _explain(args.explain)

    try:
        config = _load_config(args)
        select = args.select.split(",") if args.select else None
        if args.fix:
            return _run_fix(args, config, select)
        cache_dir: Optional[Path] = None
        if not args.no_cache:
            cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
        changed_only: Optional[frozenset[str]] = None
        if args.changed:
            changed_only = _git_changed_rels()
            if not changed_only:
                print("cdelint --changed: no dirty .py files, nothing to do")
                return EXIT_CLEAN
        report = run_lint(
            args.paths, config=config, select=select, cache_dir=cache_dir,
            warn_unused_suppressions=args.warn_unused_suppressions,
            changed_only=changed_only)
    except (ValueError, OSError) as exc:
        print(f"cdelint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if fmt == "json":
        json.dump(report.to_json(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif fmt == "sarif":
        json.dump(to_sarif(report), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        if report.changed_scope is not None:
            print(f"cdelint --changed: reporting on "
                  f"{len(report.changed_scope)} file(s) in the dirty "
                  f"subgraph")
        print(report.render_human())
    if args.stats:
        _print_stats(report)
    return EXIT_CLEAN if report.ok else EXIT_FINDINGS
