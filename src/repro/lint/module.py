"""Parsed source files and suppression comments.

A :class:`ModuleInfo` bundles one file's AST with its parsed suppression
comments.  Suppressions are explicit and auditable:

* ``# cdelint: disable=CDE001`` on a flagged line suppresses the listed
  rules (comma-separated; ``all`` suppresses every rule) for that line.
  For a multi-line statement the comment goes on the statement's first
  line — the line the finding is reported at.
* ``# cdelint: disable-file=CDE003`` anywhere in the file suppresses the
  listed rules for the whole file.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .astutil import import_aliases

SUPPRESS_ALL = "all"

#: One suppression comment token that matched a finding:
#: ``("line", line, token)`` or ``("file", 0, token)``.
SuppressionKey = tuple[str, int, str]


def suppression_hits(
    line_rules: "dict[int, frozenset[str]] | dict[int, tuple[str, ...]]",
    file_rules: "frozenset[str] | tuple[str, ...]",
    rule_id: str,
    line: int,
) -> list[SuppressionKey]:
    """Which suppression tokens waive ``rule_id`` at ``line``.

    Works on both :class:`ModuleInfo` (frozenset values) and
    :class:`~repro.lint.callgraph.ModuleSummary` (tuple values).  The
    returned keys feed the CDE014 unused-suppression audit: a token that
    never appears in any run's hits is a stale waiver.
    """
    hits: list[SuppressionKey] = []
    for token in sorted(line_rules.get(line, ())):
        if token == rule_id or token == SUPPRESS_ALL:
            hits.append(("line", line, token))
    for token in sorted(file_rules):
        if token == rule_id or token == SUPPRESS_ALL:
            hits.append(("file", 0, token))
    return hits

_SUPPRESS_RE = re.compile(
    r"#\s*cdelint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+)"
)


def _parse_rule_list(raw: str) -> frozenset[str]:
    rules = {token.strip() for token in raw.split(",") if token.strip()}
    return frozenset(
        SUPPRESS_ALL if rule.lower() == SUPPRESS_ALL else rule.upper()
        for rule in rules
    )


@dataclass
class ModuleInfo:
    """One parsed source file plus its suppression map."""

    path: Path
    rel: str                      # posix path used in findings and scoping
    source: str
    tree: ast.Module
    line_suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    file_suppressions: frozenset[str] = frozenset()

    @cached_property
    def aliases(self) -> dict[str, str]:
        """The file's import aliases, parsed once and shared by the
        summary and every per-file rule (see
        :func:`~repro.lint.astutil.import_aliases`)."""
        return import_aliases(self.tree)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        for scope in (self.file_suppressions,
                      self.line_suppressions.get(line, frozenset())):
            if rule_id in scope or SUPPRESS_ALL in scope:
                return True
        return False


class ModuleParseError(Exception):
    """Raised when a checked file cannot be read or parsed."""


def parse_suppressions(
    source: str,
) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Extract per-line and per-file suppression sets from comments."""
    per_line: dict[int, frozenset[str]] = {}
    per_file: frozenset[str] = frozenset()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return per_line, per_file
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        rules = _parse_rule_list(match.group("rules"))
        if not rules:
            continue
        if match.group("kind") == "disable-file":
            per_file = per_file | rules
        else:
            line = token.start[0]
            per_line[line] = per_line.get(line, frozenset()) | rules
    return per_line, per_file


def load_module(path: Path, rel: str) -> ModuleInfo:
    """Parse ``path`` into a :class:`ModuleInfo`."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModuleParseError(f"{rel}: cannot read: {exc}") from exc
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        raise ModuleParseError(
            f"{rel}:{exc.lineno or 0}: syntax error: {exc.msg}"
        ) from exc
    per_line, per_file = parse_suppressions(source)
    return ModuleInfo(
        path=path,
        rel=rel,
        source=source,
        tree=tree,
        line_suppressions=per_line,
        file_suppressions=per_file,
    )
