"""``--fix`` — mechanical autofixes for CDE003 / CDE005 / CDE006.

The fixer is driven by the *rules*: it runs the normal lint pass (so
path scoping, configuration and suppression comments are honoured
exactly), then maps each finding of a fixable rule back to its AST node
and rewrites the source with position-anchored text edits:

* CDE003 — wrap the flagged set-valued iterable in ``sorted(...)``.
* CDE005 — replace the mutable default with ``None``, widen an existing
  annotation to ``T | None``, and insert an
  ``if <param> is None: <param> = <original>`` guard after the
  docstring.
* CDE006 — annotate parameters whose literal default makes the type
  unambiguous (``bool``/``int``/``float``/``str``/``bytes``), and add
  ``-> None`` when the body provably returns no value.

Every fix is best-effort and conservative: anything the fixer cannot
rewrite safely (single-line function bodies, non-literal defaults,
non-inferable annotations) is left for the human.  Applying the fixer
twice is a no-op by construction — each rewrite removes the finding that
triggered it — and a file whose rewritten text fails to re-parse is
discarded untouched.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .config import LintConfig
from .engine import _relativize, iter_python_files, run_lint
from .findings import Finding

#: Rules the autofixer knows how to rewrite.
FIXABLE_RULES = ("CDE003", "CDE005", "CDE006")


@dataclass(frozen=True)
class _Edit:
    """Replace ``source[start:end]`` with ``text`` (insert when start==end)."""

    start: int
    end: int
    text: str
    #: Tiebreak for same-position inserts: lower order applied first in
    #: the final text.
    order: int = 0


@dataclass
class FileFix:
    """The planned rewrite of one file."""

    path: Path
    rel: str
    original: str
    fixed: str
    notes: tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return self.fixed != self.original

    def diff(self) -> str:
        return "".join(difflib.unified_diff(
            self.original.splitlines(keepends=True),
            self.fixed.splitlines(keepends=True),
            fromfile=self.rel, tofile=self.rel,
        ))


class _Locator:
    """Maps (line, col) findings back to AST nodes and text offsets."""

    def __init__(self, source: str, tree: ast.Module):
        self.source = source
        self.tree = tree
        self.line_starts = [0]
        for line in source.splitlines(keepends=True):
            self.line_starts.append(self.line_starts[-1] + len(line))

    def offset(self, line: int, col: int) -> int:
        return self.line_starts[line - 1] + col

    def node_span(self, node: ast.AST) -> tuple[int, int]:
        return (
            self.offset(node.lineno, node.col_offset),
            self.offset(node.end_lineno, node.end_col_offset),
        )

    def segment(self, node: ast.AST) -> str:
        start, end = self.node_span(node)
        return self.source[start:end]

    def function_defs(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [node for node in ast.walk(self.tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


# ---------------------------------------------------------------------------
# CDE003: sorted() wrapping
# ---------------------------------------------------------------------------

def _iterables_at(loc: _Locator, line: int, col: int) -> Optional[ast.expr]:
    for node in ast.walk(loc.tree):
        candidates: list[ast.expr] = []
        if isinstance(node, ast.For):
            candidates.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            candidates.extend(gen.iter for gen in node.generators)
        for candidate in candidates:
            if (candidate.lineno, candidate.col_offset) == (line, col):
                return candidate
    return None


def _fix_cde003(loc: _Locator, finding: Finding,
                edits: list[_Edit], notes: list[str]) -> None:
    iterable = _iterables_at(loc, finding.line, finding.col)
    if iterable is None:
        return
    start, end = loc.node_span(iterable)
    edits.append(_Edit(start, start, "sorted("))
    edits.append(_Edit(end, end, ")"))
    notes.append(f"{finding.path}:{finding.line}: wrapped set iterable "
                 f"in sorted(...)")


# ---------------------------------------------------------------------------
# CDE005: None-and-construct defaults
# ---------------------------------------------------------------------------

def _default_owner(
    loc: _Locator, line: int, col: int,
) -> Optional[tuple[ast.FunctionDef | ast.AsyncFunctionDef,
                    ast.arg, ast.expr]]:
    """The (function, parameter, default) owning the default at a position."""
    for func in loc.function_defs():
        args = func.args
        positional = args.posonlyargs + args.args
        paired = list(zip(positional[len(positional) - len(args.defaults):],
                          args.defaults))
        paired.extend(
            (arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        )
        for arg, default in paired:
            if (default.lineno, default.col_offset) == (line, col):
                return func, arg, default
    return None


def _body_insertion_point(
    loc: _Locator, func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Optional[tuple[int, str]]:
    """(offset, indent) before the first non-docstring body statement.

    ``None`` when the body shares a line with the signature (single-line
    defs are left for the human)."""
    body = list(func.body)
    first = body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str) and len(body) > 1):
        first = body[1]
    if first.lineno == func.lineno:
        return None  # def f(x=[]): return x
    line_start = loc.line_starts[first.lineno - 1]
    indent = loc.source[line_start:loc.offset(first.lineno,
                                              first.col_offset)]
    if indent.strip():
        return None  # statement does not start its own line
    return line_start, indent


def _fix_cde005(loc: _Locator, finding: Finding,
                edits: list[_Edit], notes: list[str]) -> None:
    owner = _default_owner(loc, finding.line, finding.col)
    if owner is None:
        return
    func, arg, default = owner
    insertion = _body_insertion_point(loc, func)
    if insertion is None:
        return
    guard_offset, indent = insertion
    default_src = loc.segment(default)
    if "\n" in default_src:
        return  # multi-line default: leave for the human
    start, end = loc.node_span(default)
    edits.append(_Edit(start, end, "None"))
    if arg.annotation is not None:
        ann_src = loc.segment(arg.annotation)
        if "None" not in ann_src and not ann_src.startswith("Optional"):
            a_start, a_end = loc.node_span(arg.annotation)
            edits.append(_Edit(a_start, a_end, f"{ann_src} | None"))
    guard = (f"{indent}if {arg.arg} is None:\n"
             f"{indent}    {arg.arg} = {default_src}\n")
    # Same-position guards stack in parameter order via the order key.
    edits.append(_Edit(guard_offset, guard_offset, guard,
                       order=arg.col_offset + 1000 * arg.lineno))
    notes.append(f"{finding.path}:{finding.line}: default {default_src!r} of "
                 f"{func.name}({arg.arg}) rewritten to None-and-construct")


# ---------------------------------------------------------------------------
# CDE006: inferable annotations
# ---------------------------------------------------------------------------

def _literal_type(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if not isinstance(node, ast.Constant):
        return None
    value = node.value
    if isinstance(value, bool):  # bool before int: True is an int
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if isinstance(value, bytes):
        return "bytes"
    return None


def _returns_no_value(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    from .effects import _walk_own

    for node in _walk_own(func):
        if isinstance(node, ast.Return) and node.value is not None:
            return False
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return False
    return True


def _signature_colon(loc: _Locator,
                     func: ast.FunctionDef | ast.AsyncFunctionDef,
                     ) -> Optional[int]:
    """Offset of the ``:`` ending the signature (no return annotation)."""
    start = loc.offset(func.lineno, func.col_offset)
    source = loc.source
    index = source.index("(", start)
    depth = 0
    while index < len(source):
        char = source[index]
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
            if depth == 0:
                break
        elif char in "\"'":
            quote = char
            index += 1
            while index < len(source) and source[index] != quote:
                index += 2 if source[index] == "\\" else 1
        index += 1
    else:
        return None
    index += 1
    while index < len(source) and source[index] in " \t\r\n\\":
        index += 1
    if index < len(source) and source[index] == ":":
        return index
    return None


def _fix_cde006(loc: _Locator, finding: Finding,
                edits: list[_Edit], notes: list[str]) -> None:
    func = next(
        (f for f in loc.function_defs()
         if (f.lineno, f.col_offset) == (finding.line, finding.col)),
        None,
    )
    if func is None:
        return
    args = func.args
    positional = args.posonlyargs + args.args
    paired = list(zip(positional[len(positional) - len(args.defaults):],
                      args.defaults))
    paired.extend(
        (arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    annotated: list[str] = []
    for arg, default in paired:
        if arg.annotation is not None:
            continue
        inferred = _literal_type(default)
        if inferred is None:
            continue
        arg_end = loc.offset(arg.end_lineno, arg.end_col_offset)
        default_start, _ = loc.node_span(default)
        edits.append(_Edit(arg_end, default_start, f": {inferred} = "))
        annotated.append(f"{arg.arg}: {inferred}")
    if func.returns is None and _returns_no_value(func):
        colon = _signature_colon(loc, func)
        if colon is not None:
            edits.append(_Edit(colon, colon, " -> None"))
            annotated.append("-> None")
    if annotated:
        notes.append(f"{finding.path}:{finding.line}: annotated {func.name}"
                     f"({', '.join(annotated)})")


_FIXERS = {
    "CDE003": _fix_cde003,
    "CDE005": _fix_cde005,
    "CDE006": _fix_cde006,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _apply_edits(source: str, edits: list[_Edit]) -> Optional[str]:
    """Apply non-overlapping edits; ``None`` when any pair overlaps."""
    spans = sorted(edits, key=lambda e: (e.start, e.end, e.order))
    for before, after in zip(spans, spans[1:]):
        if before.end > after.start:
            return None
    out: list[str] = []
    cursor = 0
    for edit in spans:
        out.append(source[cursor:edit.start])
        out.append(edit.text)
        cursor = edit.end
    out.append(source[cursor:])
    return "".join(out)


def plan_fixes(paths: Sequence[Path | str],
               config: LintConfig | None = None,
               select: Iterable[str] | None = None) -> list[FileFix]:
    """Plan (but do not write) autofixes for every fixable finding.

    ``select`` narrows which fixable rules run (non-fixable selections
    are ignored); suppression comments and config scoping apply exactly
    as in a normal lint run.
    """
    config = config or LintConfig()
    wanted = set(FIXABLE_RULES)
    if select is not None:
        wanted &= {rule_id.upper() for rule_id in select}
    if not wanted:
        return []
    report = run_lint(paths, config=config, select=sorted(wanted))

    by_rel: dict[str, list[Finding]] = {}
    for finding in report.findings:
        by_rel.setdefault(finding.path, []).append(finding)

    fixes: list[FileFix] = []
    for path in iter_python_files([Path(p) for p in paths], config):
        rel = _relativize(path)
        findings = by_rel.get(rel)
        if not findings:
            continue
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        loc = _Locator(source, tree)
        edits: list[_Edit] = []
        notes: list[str] = []
        for finding in sorted(findings):
            _FIXERS[finding.rule_id](loc, finding, edits, notes)
        if not edits:
            continue
        fixed = _apply_edits(source, edits)
        if fixed is None or fixed == source:
            continue
        try:
            ast.parse(fixed)
        except SyntaxError:
            continue  # never write a file we broke
        fixes.append(FileFix(path=path, rel=rel, original=source,
                             fixed=fixed, notes=tuple(notes)))
    return fixes


def apply_fixes(fixes: Iterable[FileFix]) -> int:
    """Write every changed file; returns the number written."""
    written = 0
    for fix in fixes:
        if fix.changed:
            fix.path.write_text(fix.fixed, encoding="utf-8")
            written += 1
    return written


def render_diff(fixes: Iterable[FileFix]) -> str:
    """Unified diff of every planned fix (the ``--fix --diff`` output)."""
    return "".join(fix.diff() for fix in fixes if fix.changed)
