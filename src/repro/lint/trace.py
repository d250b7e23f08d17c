"""Canonical effect-trace extraction for cdesync (CDE015/CDE016).

A *trace* is a loop/branch-structured tree describing every observable
effect a function body can perform, in program order: attribute and
container mutations (with their resolved receiver chains), calls (with
resolved receiver chains, so the matcher can classify them), and
constructed-``__dict__`` layouts.  Traces are deliberately
**config-independent** — receiver chains are resolved against local
aliases only, and classification (which chain is an RNG draw, which
attribute is observable state) happens at match time in
:mod:`repro.lint.sync` — so a trace is a pure function of the file's
bytes and can live in the content-hash-keyed summary cache.

Node encoding (JSON-ready nested lists)::

    ["seq", [node, ...]]          ordered composition
    ["alt", [node, ...]]          one of the arms (if/else, and/or, ifexp)
    ["loop", node]                zero-or-more repetitions of the body
    ["while", node, node]         test node, body node (test re-runs per lap)
    ["try", node, [node, ...]]    body, handlers
    ["ret"] / ["raise"]           jump to normal / exception exit
    ["brk"] / ["cont"]            loop control
    ["call", [chain...], line]    call through resolved receiver chain
    ["mut", [chain...], line]     attribute/container mutation
    ["layout", cls, [fields...], line]   constructed ``__dict__`` literal

The module also parses ``# cdelint: replica-of=<dotted.path>`` markers
(on the ``def`` line or the line above) and per-module dataclass field
orders, both consumed by the CDE015/CDE016 rules.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Any, Optional

#: JSON-shaped trace node (nested lists; see module docstring).
TraceNode = list[Any]

#: Container/object methods that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "insert", "extend", "update",
    "setdefault", "pop", "popitem", "popleft", "clear", "remove",
    "discard", "sort", "reverse",
})

#: Methods whose *result* aliases the receiver's container slot
#: (``bucket = log._by_qname.setdefault(qname, [])`` makes ``bucket`` an
#: alias of the ``_by_qname`` container for later mutation labelling).
#: ``get`` is deliberately absent: a ``.get`` result is typically a
#: *stored object* (a cache entry), and method calls on it — ``touch``,
#: ``aged_rrset`` — are observable effects in their own right, not
#: container plumbing.
_ALIASING_METHODS = frozenset({"setdefault"})

_REPLICA_RE = re.compile(
    r"#\s*cdelint:\s*replica-of\s*=\s*(?P<target>[A-Za-z0-9_.]+)"
)


def _is_empty_setdefault(method: str, node: ast.Call) -> bool:
    """``d.setdefault(key, [])`` with an empty-literal default.

    Materialising an empty slot is idempotent warming, not an observable
    mutation: the slot's contents are exactly what a later lazy
    ``setdefault`` on the real path would create, so eager index warming
    (the cold-chain capture) stays trace-equivalent to lazy recording.
    """
    if method != "setdefault" or len(node.args) != 2:
        return False
    default = node.args[1]
    if isinstance(default, (ast.List, ast.Set)) and not default.elts:
        return True
    if isinstance(default, ast.Dict) and not default.keys:
        return True
    if (isinstance(default, ast.Call) and not default.args
            and not default.keywords and isinstance(default.func, ast.Name)
            and default.func.id in ("list", "dict", "set", "deque")):
        return True
    return False


def parse_replica_markers(source: str) -> dict[int, str]:
    """``# cdelint: replica-of=<dotted.path>`` comments, by line number."""
    markers: dict[int, str] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return markers
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _REPLICA_RE.search(token.string)
        if match is not None:
            markers[token.start[0]] = match.group("target")
    return markers


def replica_marker_for(markers: dict[int, str],
                       func: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    """The marker bound to ``func``: on its ``def`` line or the line above."""
    return markers.get(func.lineno) or markers.get(func.lineno - 1, "")


def module_dataclass_fields(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Ordered field names of every ``@dataclass``-decorated class."""
    out: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_is_dataclass_decorator(d) for d in node.decorator_list):
            continue
        names: list[str] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                if _is_classvar(stmt.annotation):
                    continue
                names.append(stmt.target.id)
        out[node.name] = tuple(names)
    return out


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr == "ClassVar"
    return isinstance(target, ast.Name) and target.id == "ClassVar"


def module_object_aliases(tree: ast.Module) -> tuple[frozenset[str],
                                                     frozenset[str]]:
    """Module-level aliases of ``object.__new__`` / ``object.__setattr__``."""
    new_names: set[str] = set()
    setattr_names: set[str] = set()
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = stmt.value
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "object"):
            if value.attr == "__new__":
                new_names.add(target.id)
            elif value.attr == "__setattr__":
                setattr_names.add(target.id)
    return frozenset(new_names), frozenset(setattr_names)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

class _Extractor:
    """One function body -> trace tree, with local alias resolution."""

    def __init__(self, objnew: frozenset[str], objsetattr: frozenset[str]):
        self.objnew = objnew
        self.objsetattr = objsetattr
        #: local name -> resolved receiver chain (lists of attr names).
        self.env: dict[str, list[str]] = {}
        #: local name -> class simple name (``x = _obj_new(Cls)``).
        self.cls_env: dict[str, str] = {}

    # -- chain resolution ---------------------------------------------------

    def chain_of(self, node: ast.expr) -> Optional[list[str]]:
        """Receiver chain with local aliases expanded; ``None`` if opaque.

        Subscripts are transparent (``plan.corridor[i].x`` keeps the
        ``corridor`` element in the chain) and calls resolve through
        their function expression (``d.setdefault(k, []).append(v)``
        roots ``append`` at the ``d`` container).
        """
        if isinstance(node, ast.Name):
            alias = self.env.get(node.id)
            return list(alias) if alias is not None else [node.id]
        if isinstance(node, ast.Attribute):
            base = self.chain_of(node.value)
            if base is None:
                return None
            base.append(node.attr)
            return base
        if isinstance(node, ast.Subscript):
            return self.chain_of(node.value)
        if isinstance(node, ast.Call):
            return self.chain_of(node.func)
        return None

    # -- expressions (evaluation order) -------------------------------------

    def expr(self, node: Optional[ast.expr], out: list[TraceNode]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            self.call(node, out)
            return
        if isinstance(node, ast.BoolOp):
            self.expr(node.values[0], out)
            for value in node.values[1:]:
                arm: list[TraceNode] = []
                self.expr(value, arm)
                if arm:
                    out.append(["alt", [["seq", arm], ["seq", []]]])
            return
        if isinstance(node, ast.IfExp):
            self.expr(node.test, out)
            body: list[TraceNode] = []
            orelse: list[TraceNode] = []
            self.expr(node.body, body)
            self.expr(node.orelse, orelse)
            if body or orelse:
                out.append(["alt", [["seq", body], ["seq", orelse]]])
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            self.comprehension(node, out)
            return
        if isinstance(node, ast.Lambda):
            return  # a def, not a call
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.expr(child, out)

    def comprehension(self, node: ast.expr, out: list[TraceNode]) -> None:
        generators = node.generators  # type: ignore[attr-defined]
        self.expr(generators[0].iter, out)
        body: list[TraceNode] = []
        for gen in generators:
            if gen is not generators[0]:
                self.expr(gen.iter, body)
            for cond in gen.ifs:
                self.expr(cond, body)
        if isinstance(node, ast.DictComp):
            self.expr(node.key, body)
            self.expr(node.value, body)
        else:
            self.expr(node.elt, body)  # type: ignore[attr-defined]
        if body:
            out.append(["loop", ["seq", body]])

    def call(self, node: ast.Call, out: list[TraceNode]) -> None:
        # Receiver-of-receiver calls run first (setdefault(...).append).
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Call):
            self.call(func.value, out)
        for arg in node.args:
            self.expr(arg.value if isinstance(arg, ast.Starred) else arg, out)
        for keyword in node.keywords:
            self.expr(keyword.value, out)
        # _obj_setattr(x, "__dict__", {...}) -> layout node.
        if (isinstance(func, ast.Name) and func.id in self.objsetattr
                and len(node.args) == 3):
            target, attr, value = node.args
            if (isinstance(attr, ast.Constant)
                    and attr.value == "__dict__"
                    and isinstance(value, ast.Dict)):
                self.layout(target, value, node.lineno, out)
                return
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                chain = self.chain_of(target)
                if chain is not None:
                    out.append(["mut", chain + [attr.value], node.lineno])
                return
        chain = self.chain_of(func)
        if chain is None:
            return
        if chain[-1] in MUTATING_METHODS and len(chain) >= 2:
            if not _is_empty_setdefault(chain[-1], node):
                out.append(["mut", chain[:-1], node.lineno])
            return
        out.append(["call", chain, node.lineno])

    def layout(self, target: ast.expr, value: ast.Dict, line: int,
               out: list[TraceNode]) -> None:
        keys = [key.value for key in value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)]
        if len(keys) != len(value.keys):
            return
        for item in value.values:
            self.expr(item, out)
        cls = ""
        if isinstance(target, ast.Name):
            cls = self.cls_env.get(target.id, "")
        out.append(["layout", cls, keys, line])

    # -- statements ---------------------------------------------------------

    def block(self, stmts: list[ast.stmt]) -> TraceNode:
        out: list[TraceNode] = []
        for stmt in stmts:
            self.stmt(stmt, out)
        return ["seq", out]

    def stmt(self, node: ast.stmt, out: list[TraceNode]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass)):
            return
        if isinstance(node, ast.Expr):
            self.expr(node.value, out)
            return
        if isinstance(node, ast.Assign):
            self.assign(node, out)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.expr(node.value, out)
                self.mut_target(node.target, node.lineno, out)
                if isinstance(node.target, ast.Name):
                    self.rebind(node.target.id, node.value)
            return
        if isinstance(node, ast.AugAssign):
            self.expr(node.value, out)
            self.mut_target(node.target, node.lineno, out)
            if isinstance(node.target, ast.Name):
                self.env.pop(node.target.id, None)
            return
        if isinstance(node, ast.If):
            self.expr(node.test, out)
            out.append(["alt", [self.block(node.body),
                                self.block(node.orelse)]])
            return
        if isinstance(node, ast.While):
            test: list[TraceNode] = []
            self.expr(node.test, test)
            body = self.block(node.body)
            out.append(["while", ["seq", test], body])
            if node.orelse:
                out.append(self.block(node.orelse))
            return
        if isinstance(node, ast.For):
            self.expr(node.iter, out)
            chain = self.chain_of(node.iter)
            if isinstance(node.target, ast.Name):
                if chain is not None:
                    self.env[node.target.id] = chain
                else:
                    self.env.pop(node.target.id, None)
            out.append(["loop", self.block(node.body)])
            if node.orelse:
                out.append(self.block(node.orelse))
            return
        if isinstance(node, ast.Try):
            body = self.block(node.body + node.orelse)
            handlers = [self.block(handler.body)
                        for handler in node.handlers]
            out.append(["try", body, handlers])
            if node.finalbody:
                out.append(self.block(node.finalbody))
            return
        if isinstance(node, ast.With):
            for item in node.items:
                self.expr(item.context_expr, out)
            out.append(self.block(node.body))
            return
        if isinstance(node, ast.Return):
            self.expr(node.value, out)
            out.append(["ret"])
            return
        if isinstance(node, ast.Raise):
            self.expr(node.exc, out)
            self.expr(node.cause, out)
            out.append(["raise"])
            return
        if isinstance(node, ast.Break):
            out.append(["brk"])
            return
        if isinstance(node, ast.Continue):
            out.append(["cont"])
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self.mut_target(target, node.lineno, out)
            return
        if isinstance(node, ast.Assert):
            self.expr(node.test, out)
            return
        if isinstance(node, ast.Match):  # pragma: no cover - repo uses none
            self.expr(node.subject, out)
            out.append(["alt", [self.block(case.body)
                                for case in node.cases]])
            return
        for child in ast.iter_child_nodes(node):  # pragma: no cover
            if isinstance(child, ast.expr):
                self.expr(child, out)

    def assign(self, node: ast.Assign, out: list[TraceNode]) -> None:
        self.expr(node.value, out)
        # ``x.__dict__ = {...}`` -> layout node.
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and target.attr == "__dict__"
                    and isinstance(node.value, ast.Dict)):
                self.layout(target.value, node.value, node.lineno, out)
                return
        subscript_roots: list[list[str]] = []
        for target in node.targets:
            self.mut_target(target, node.lineno, out)
            if isinstance(target, ast.Subscript):
                root = self.chain_of(target.value)
                if root is not None:
                    subscript_roots.append(root)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if subscript_roots:
                    # ``d[k] = x = v``: x aliases the container slot.
                    self.env[target.id] = list(subscript_roots[0])
                else:
                    self.rebind(target.id, node.value)
            elif isinstance(target, (ast.Tuple, ast.List)):
                chain = (self.chain_of(node.value)
                         if isinstance(node.value, (ast.Name, ast.Attribute))
                         else None)
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        if chain is not None:
                            self.env[elt.id] = list(chain)
                        else:
                            self.env.pop(elt.id, None)

    def rebind(self, name: str, value: ast.expr) -> None:
        if isinstance(value, (ast.Name, ast.Attribute)):
            chain = self.chain_of(value)
            if chain is not None:
                self.env[name] = chain
                self.cls_env.pop(name, None)
                return
        if isinstance(value, ast.Call):
            func = value.func
            # ``x = _obj_new(Cls)`` binds x's class for layout auditing.
            if (isinstance(func, ast.Name) and func.id in self.objnew
                    and value.args):
                cls_chain = self.chain_of(value.args[0])
                if cls_chain:
                    self.env.pop(name, None)
                    self.cls_env[name] = cls_chain[-1]
                    return
            chain = self.chain_of(func)
            if (chain is not None and len(chain) >= 2
                    and chain[-1] in _ALIASING_METHODS):
                self.env[name] = chain[:-1]
                self.cls_env.pop(name, None)
                return
        self.env.pop(name, None)
        self.cls_env.pop(name, None)

    def mut_target(self, target: ast.expr, line: int,
                   out: list[TraceNode]) -> None:
        if isinstance(target, ast.Attribute):
            chain = self.chain_of(target)
            if chain is not None:
                out.append(["mut", chain, line])
        elif isinstance(target, ast.Subscript):
            self.expr(target.slice, out)
            chain = self.chain_of(target.value)
            if chain is not None:
                out.append(["mut", chain, line])
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, (ast.Attribute, ast.Subscript)):
                    self.mut_target(elt, line, out)


def extract_trace(func: ast.FunctionDef | ast.AsyncFunctionDef,
                  objnew: frozenset[str] = frozenset(),
                  objsetattr: frozenset[str] = frozenset()) -> TraceNode:
    """The trace tree of ``func``'s own body (nested defs excluded)."""
    extractor = _Extractor(objnew, objsetattr)
    return extractor.block(func.body)


def has_effect_nodes(node: TraceNode) -> bool:
    """Whether a trace holds any effect leaf (pure traces are not stored)."""
    kind = node[0]
    if kind in ("call", "mut", "layout"):
        return True
    if kind in ("seq", "alt"):
        return any(has_effect_nodes(child) for child in node[1])
    if kind == "loop":
        return has_effect_nodes(node[1])
    if kind == "while":
        return has_effect_nodes(node[1]) or has_effect_nodes(node[2])
    if kind == "try":
        return (has_effect_nodes(node[1])
                or any(has_effect_nodes(h) for h in node[2]))
    return False
