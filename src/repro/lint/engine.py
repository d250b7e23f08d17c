"""The cdelint engine: collect files, summarise, run every rule.

The run is structured around cacheable per-file summaries:

1. Every file is content-hashed.  Files with a warm cached summary
   (:mod:`repro.lint.cache`) are *not* parsed; the rest are parsed into
   :class:`ModuleInfo` and summarised.
2. Per-module rules run on parsed modules; their (suppression-filtered)
   findings are cached per file, keyed by content hash plus an
   environment key covering the config, the rule set, and the
   project-wide set-returning index — so a warm run with no relevant
   change replays findings without parsing anything.
3. Project rules (CDE004, CDE007–CDE009) run on summaries alone through
   the :class:`ProjectContext` call graph; effect signatures are
   propagated incrementally when warm cached signatures exist for the
   same binding fingerprint.

File discovery and finding order are deterministic regardless of input
order: files are collected into a set and sorted, and the final report
is ``sorted(set(findings))`` on the total order of
:class:`~repro.lint.findings.Finding` — ``(path, line, col, rule_id,
message, symbol)``.
"""

from __future__ import annotations

import ast
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .cache import AnalysisCache, content_hash
from .callgraph import ModuleSummary, set_returning_names, summarize_module
from .config import LintConfig, path_matches_any
from .effects import EffectAnalysis
from .findings import Finding, LintReport
from .module import (SUPPRESS_ALL, ModuleInfo, ModuleParseError,
                     SuppressionKey, parse_suppressions, suppression_hits)
from .registry import ProjectContext, Rule, all_rules, instantiate

#: Rule id of the engine-implemented unused-suppression audit.
UNUSED_SUPPRESSION_RULE = "CDE014"

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".ruff_cache",
                        ".cdelint_cache"})


def iter_python_files(paths: Sequence[Path],
                      config: LintConfig) -> list[Path]:
    """Sorted, deduplicated ``.py`` files under ``paths``."""
    collected: set[Path] = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                collected.add(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in path.rglob("*.py"):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            collected.add(candidate)
    files = sorted(collected)
    return [
        path for path in files
        if not path_matches_any(path.as_posix(), config.exclude)
    ]


def _relativize(path: Path) -> str:
    """Posix path relative to the working directory when possible."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse(path: Path, rel: str, source: str) -> ModuleInfo:
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        raise ModuleParseError(
            f"{rel}:{exc.lineno or 0}: syntax error: {exc.msg}"
        ) from exc
    per_line, per_file = parse_suppressions(source)
    return ModuleInfo(path=path, rel=rel, source=source, tree=tree,
                      line_suppressions=per_line, file_suppressions=per_file)


@dataclass
class _FileEntry:
    """One collected file across the engine's stages."""

    path: Path
    rel: str
    source: str
    sha: str
    summary: ModuleSummary
    module: Optional[ModuleInfo] = None  # parsed lazily on a warm run


def run_lint(paths: Sequence[Path | str],
             config: LintConfig | None = None,
             select: Iterable[str] | None = None,
             cache_dir: Path | str | None = None,
             warn_unused_suppressions: bool = False,
             changed_only: Iterable[str] | None = None) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`.

    Pure by default (no I/O side effects beyond reading the files); pass
    ``cache_dir`` to enable the incremental cache, which reads and
    atomically rewrites ``<cache_dir>/cache.json``.

    ``warn_unused_suppressions`` enables the CDE014 audit (equivalent to
    selecting CDE014 explicitly): suppression comments that waived no
    finding from any rule that ran this invocation are themselves
    reported.  ``changed_only`` restricts the *report* to the given rel
    paths plus every file with a function that transitively calls into
    them (the dirty subgraph) — the analysis itself still covers the
    whole tree, so cross-file rules stay sound.
    """
    config = config or LintConfig()
    rules: list[Rule] = instantiate(select, disabled=config.disable)
    cache = AnalysisCache(Path(cache_dir)) if cache_dir is not None else None
    audit_unused = warn_unused_suppressions or any(
        rule.rule_id == UNUSED_SUPPRESSION_RULE for rule in rules)

    rules_run = [rule.rule_id for rule in rules]
    if audit_unused and UNUSED_SUPPRESSION_RULE not in rules_run:
        rules_run.append(UNUSED_SUPPRESSION_RULE)
    report = LintReport(rules_run=tuple(rules_run))

    # Stage 1: hash every file; parse + summarise only the cache misses.
    entries: list[_FileEntry] = []
    resummarized: list[str] = []
    parsed: set[str] = set()
    for path in iter_python_files([Path(p) for p in paths], config):
        rel = _relativize(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.parse_errors.append(f"{rel}: cannot read: {exc}")
            continue
        sha = content_hash(source)
        summary = cache.lookup_summary(rel, sha) if cache else None
        module: Optional[ModuleInfo] = None
        if summary is None:
            try:
                module = _parse(path, rel, source)
            except ModuleParseError as exc:
                report.parse_errors.append(str(exc))
                continue
            summary = summarize_module(module)
            resummarized.append(rel)
            parsed.add(rel)
            if cache:
                cache.store_summary(rel, sha, summary)
        entries.append(_FileEntry(path=path, rel=rel, source=source,
                                  sha=sha, summary=summary, module=module))
    report.files_checked = len(entries)

    summaries = {entry.rel: entry.summary for entry in entries}
    set_returning = set_returning_names(summaries.values())

    ctx = ProjectContext(
        config=config,
        modules=[e.module for e in entries if e.module is not None],
        summaries=summaries,
        set_returning_callables=set_returning,
    )

    # Stage 2: per-module rules, replayed from cache when nothing that
    # can influence them changed.
    env_key = ":".join((
        config.config_hash(),
        hashlib.sha256("|".join(sorted(set_returning)).encode())
        .hexdigest()[:16],
        ",".join(rule.rule_id for rule in rules),
    ))
    findings: list[Finding] = []
    #: Seconds spent inside each rule's checkers (``--stats``).  Uses
    #: time.perf_counter, the sanctioned elapsed-time sampler (CDE001):
    #: timings never feed back into findings or the committed baseline.
    rule_timings: dict[str, float] = {rule.rule_id: 0.0 for rule in rules}
    #: Suppression tokens that waived at least one finding, per rel path —
    #: the complement feeds the CDE014 unused-suppression audit.
    used_keys: dict[str, set[SuppressionKey]] = {}
    for entry in entries:
        cached = (cache.lookup_findings(entry.rel, entry.sha, env_key)
                  if cache else None)
        if cached is not None:
            cached_findings, cached_used = cached
            findings.extend(cached_findings)
            used_keys.setdefault(entry.rel, set()).update(cached_used)
            continue
        if entry.module is None:
            # Summary was warm but the findings environment changed.
            try:
                entry.module = _parse(entry.path, entry.rel, entry.source)
            except ModuleParseError as exc:  # pragma: no cover - same bytes
                report.parse_errors.append(str(exc))
                continue
            parsed.add(entry.rel)
            ctx.modules.append(entry.module)
        fresh: list[Finding] = []
        entry_used = used_keys.setdefault(entry.rel, set())
        for rule in rules:
            tick = time.perf_counter()
            module_findings = list(rule.check_module(entry.module, ctx))
            rule_timings[rule.rule_id] += time.perf_counter() - tick
            for finding in module_findings:
                hits = suppression_hits(
                    entry.module.line_suppressions,
                    entry.module.file_suppressions,
                    finding.rule_id, finding.line)
                if hits:
                    entry_used.update(hits)
                else:
                    fresh.append(finding)
        if cache:
            cache.store_findings(entry.rel, entry.sha, env_key, fresh,
                                 sorted(entry_used))
        findings.extend(fresh)

    # Stage 3: project rules over summaries, with incremental effect
    # propagation when the binding environment is unchanged.
    fingerprint = None
    if cache:
        fingerprint = ctx.graph.binding_fingerprint()
        cached_raw = cache.lookup_signatures(fingerprint)
        if cached_raw is not None:
            ctx.cached_signatures = EffectAnalysis.signatures_from_json(
                cached_raw)
            ctx.dirty_rels = frozenset(resummarized)
    for rule in rules:
        tick = time.perf_counter()
        project_findings = list(rule.check_project(ctx))
        rule_timings[rule.rule_id] += time.perf_counter() - tick
        for finding in project_findings:
            summary = summaries.get(finding.path)
            if summary is not None:
                hits = suppression_hits(
                    summary.line_suppressions, summary.file_suppressions,
                    finding.rule_id, finding.line)
                if hits:
                    used_keys.setdefault(finding.path, set()).update(hits)
                    continue
            findings.append(finding)

    if cache and fingerprint is not None:
        cache.store_signatures(fingerprint, ctx.effects.to_json())
        cache.save()

    if audit_unused:
        tick = time.perf_counter()
        findings.extend(_audit_suppressions(entries, used_keys, rules_run))
        rule_timings[UNUSED_SUPPRESSION_RULE] = (
            rule_timings.get(UNUSED_SUPPRESSION_RULE, 0.0)
            + time.perf_counter() - tick)

    report.findings = sorted(set(findings))
    report.rule_timings = rule_timings
    report.reanalyzed_files = tuple(sorted(parsed))
    report.effects_recomputed = (tuple(ctx._effects.recomputed)
                                 if ctx._effects is not None else ())

    if changed_only is not None:
        _apply_changed_scope(report, ctx, frozenset(changed_only))
    return report


def _audit_suppressions(entries: list[_FileEntry],
                        used_keys: dict[str, set[SuppressionKey]],
                        rules_run: list[str]) -> list[Finding]:
    """CDE014: suppression tokens that waived nothing this run.

    Only tokens naming a rule that actually ran are audited (plus
    ``all``, which every rule can hit) — a ``--select CDE001`` run must
    not condemn a CDE007 waiver it never exercised.  A token naming no
    registered rule can never waive anything, so it is reported on every
    audited run.
    """
    audited = {rule_id for rule_id in rules_run
               if rule_id != UNUSED_SUPPRESSION_RULE}
    known = set(all_rules())
    out: list[Finding] = []
    for entry in entries:
        summary = entry.summary
        used = used_keys.get(entry.rel, set())

        def _unused(kind: str, line: int, token: str,
                    at_line: int) -> Optional[Finding]:
            if token in known and token not in audited:
                return None
            if (kind, line, token) in used:
                return None
            if summary.is_suppressed(UNUSED_SUPPRESSION_RULE, at_line):
                return None
            scope = "line" if kind == "line" else "file-wide"
            reason = (f"no {token} finding was waived here this run"
                      if token in known or token == SUPPRESS_ALL
                      else "no such rule is registered")
            return Finding(
                path=entry.rel, line=at_line, col=0,
                rule_id=UNUSED_SUPPRESSION_RULE,
                message=f"unused {scope} suppression of {token}: {reason}",
            )
        for line, tokens in sorted(summary.line_suppressions.items()):
            for token in sorted(tokens):
                finding = _unused("line", line, token, line)
                if finding is not None:
                    out.append(finding)
        for token in sorted(summary.file_suppressions):
            finding = _unused("file", 0, token, 1)
            if finding is not None:
                out.append(finding)
    return out


def _apply_changed_scope(report: LintReport, ctx: ProjectContext,
                         changed: frozenset[str]) -> None:
    """Restrict ``report.findings`` to the dirty subgraph of ``changed``.

    The scope is the changed files themselves plus every file containing
    a function that transitively *calls into* a changed file — exactly
    the files whose project-rule findings a local edit can flip.  The
    analysis already ran tree-wide, so this is pure report filtering.
    """
    graph = ctx.graph
    seeds = [key for key, node in graph.nodes.items() if node.rel in changed]
    scope = set(changed)
    scope.update(graph.nodes[key].rel for key in graph.reverse_reachable(seeds))
    report.changed_scope = tuple(sorted(scope))
    report.findings = [f for f in report.findings if f.path in scope]
