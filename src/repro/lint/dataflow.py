"""Intraprocedural reaching-definitions / def-use flow analysis (cdeflow).

One pass per function turns its AST into a small, JSON-serialisable set
of **flow edges**: which taint *origins* (parameters, candidate source
attribute reads, call results) reach which *sinks* (the function's
return, each argument of each call site), with a def-use hop list that
becomes the witness chain in a report.  The interprocedural half
(:mod:`repro.lint.taint`) stitches these edges over the call graph; this
module never looks beyond one function.

The analysis is an abstract interpretation over environments mapping
local names to origin sets:

* **Origins** are ``param:<name>``, ``attr:<dotted>`` (attribute reads
  ending with a :data:`~repro.lint.taint.CANDIDATE_ATTR_SUFFIXES`
  suffix — the config-independent candidate universe, so cached
  summaries stay valid under any rule configuration), and
  ``call:<dotted>@<line>`` for every other call result.
* **Flows are explicit only**: branch *conditions* never taint what the
  branch computes, comparison results are classifications (clean), and
  ``len()`` of tainted data is a count, not the data.
* Branches merge environments; loops iterate their body to a bounded
  fixed point; ``try`` handlers run against the merged before/after
  body environment (an exception can fire anywhere in the body).
* Known value-preserving builtins pass taint through; known mutator
  methods (``samples.append(rtt)``) taint their receiver; every other
  call is a fresh ``call:`` origin plus one flow edge per tainted
  argument.

The same pass records what the provenance rules need beyond flows:
``try`` handler shapes (CDE013) and free-variable reads/mutations
(CDE012's module-global capture check — the caller intersects them with
the module's mutable globals so summaries stay small).

Everything is bounded (origins per name, hops per chain, loop passes,
edges per function) so a pathological function degrades to an
under-approximation instead of a blow-up; the bounds are far above
anything in this tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from .astutil import resolve_call_target
from .taint import (
    CANDIDATE_ATTR_SUFFIXES,
    MUTATOR_METHODS,
    PASSTHROUGH_CALLS,
    matches_any,
)

#: Bounds: beyond these the analysis under-approximates, deterministically.
MAX_ORIGINS_PER_NAME = 8
MAX_HOPS = 8
MAX_LOOP_PASSES = 10
MAX_EDGES = 400

#: An origin: ``(key, line, hops)`` — where the value came from, where,
#: and through which ``name@line`` assignments it travelled since.
_Origin = tuple[str, int, tuple[str, ...]]
_OriginSet = dict[str, _Origin]
_Env = dict[str, _OriginSet]


@dataclass(frozen=True, order=True)
class FlowEdge:
    """One origin reaching one sink inside a single function."""

    src: str                  # origin key (param:/attr:/call: form)
    src_line: int
    sink: str                 # "return" or "arg:<callee>:<pos|k=name>"
    line: int                 # sink site line
    col: int
    hops: tuple[str, ...]     # def-use witness: ("samples@249", ...)

    def to_json(self) -> list[object]:
        return [self.src, self.src_line, self.sink, self.line, self.col,
                list(self.hops)]

    @classmethod
    def from_json(cls, raw: list[object]) -> "FlowEdge":
        return cls(src=str(raw[0]), src_line=int(raw[1]),  # type: ignore[arg-type]
                   sink=str(raw[2]), line=int(raw[3]),  # type: ignore[arg-type]
                   col=int(raw[4]),  # type: ignore[arg-type]
                   hops=tuple(str(h) for h in raw[5]))  # type: ignore[union-attr]


@dataclass(frozen=True, order=True)
class HandlerSummary:
    """Shape of one ``except`` handler, as CDE013 needs it."""

    line: int
    col: int
    types: tuple[str, ...]    # caught type names (last segment); "*" = bare
    name: str                 # ``as`` binding, "" if none
    silent: bool              # body is only pass/continue/break/bare-return
    reraises: bool            # bare ``raise`` or re-raise of the binding
    uses_bound: bool          # reads the bound exception object

    def to_json(self) -> list[object]:
        return [self.line, self.col, list(self.types), self.name,
                self.silent, self.reraises, self.uses_bound]

    @classmethod
    def from_json(cls, raw: list[object]) -> "HandlerSummary":
        return cls(line=int(raw[0]), col=int(raw[1]),  # type: ignore[arg-type]
                   types=tuple(str(t) for t in raw[2]),  # type: ignore[union-attr]
                   name=str(raw[3]), silent=bool(raw[4]),
                   reraises=bool(raw[5]), uses_bound=bool(raw[6]))


@dataclass(frozen=True)
class FlowResult:
    """Everything one function contributes to the dataflow summaries."""

    flows: tuple[FlowEdge, ...]
    handlers: tuple[HandlerSummary, ...]
    free_reads: frozenset[str]       # free Name loads (raw, un-intersected)
    free_mutations: frozenset[str]   # free names stored-into / mutated
    params: tuple[str, ...]          # parameter names; "*" ends positionals


# ---------------------------------------------------------------------------
# name binding
# ---------------------------------------------------------------------------

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)
_Scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _walk_own_scope(func: ast.AST) -> list[ast.AST]:
    """Nodes of ``func``'s own body, not descending into nested scopes."""
    found: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        found.append(node)
        if isinstance(node, _Scopes):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return found


def _target_names(target: ast.expr) -> list[str]:
    """Simple names bound by an assignment target (through tuples)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """Parameter names; a ``"*"`` marker separates positional-bindable
    names from keyword-only ones (so a positional index can never map
    into a keyword-only parameter)."""
    args = func.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if args.vararg is not None or args.kwonlyargs:
        names.append("*")
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


def _bound_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every name bound in the function's own scope (params, assignment
    targets, loop/with/except bindings, local imports, nested def names,
    comprehension targets)."""
    bound = {name for name in _param_names(func) if name != "*"}
    if func.args.vararg:
        bound.add(func.args.vararg.arg)
    if func.args.kwarg:
        bound.add(func.args.kwarg.arg)
    for node in _walk_own_scope(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bound.update(_target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            bound.update(_target_names(node.target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bound.update(_target_names(node.target))
        elif isinstance(node, ast.NamedExpr):
            bound.update(_target_names(node.target))
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                bound.update(_target_names(node.optional_vars))
        elif isinstance(node, ast.ExceptHandler):
            if node.name:
                bound.add(node.name)
        elif isinstance(node, ast.comprehension):
            bound.update(_target_names(node.target))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(node, _FuncDef) or isinstance(node, ast.ClassDef):
            bound.add(node.name)
    # comprehension / lambda internals are separate scopes that were not
    # walked above; their targets never leak, so nothing to add.
    return bound


def _root_name(node: ast.expr) -> Optional[str]:
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return current.id if isinstance(current, ast.Name) else None


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------

class _Scanner:
    """Abstract interpreter for one function body."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 aliases: dict[str, str]):
        self.aliases = aliases
        self.params = _param_names(func)
        self.bound = _bound_names(func)
        self.edges: dict[tuple[str, int, str, int], FlowEdge] = {}
        self.free_reads: set[str] = set()
        self.free_mutations: set[str] = set()
        self.env: _Env = {}
        seeded = [name for name in self.params if name != "*"]
        if func.args.vararg:
            seeded.append(func.args.vararg.arg)
        if func.args.kwarg:
            seeded.append(func.args.kwarg.arg)
        for name in seeded:
            key = f"param:{name}"
            self.env[name] = {key: (key, func.lineno, ())}
        self._exec_body(func.body)

    # -- environments -------------------------------------------------------

    @staticmethod
    def _copy_env(env: _Env) -> _Env:
        return {name: dict(origins) for name, origins in env.items()}

    @staticmethod
    def _merge_sets(first: _OriginSet, second: _OriginSet) -> _OriginSet:
        if not second:
            return dict(first)
        merged = dict(first)
        for key, origin in second.items():
            merged.setdefault(key, origin)
        if len(merged) > MAX_ORIGINS_PER_NAME:
            merged = {key: merged[key]
                      for key in sorted(merged)[:MAX_ORIGINS_PER_NAME]}
        return merged

    @classmethod
    def _merge_envs(cls, first: _Env, second: _Env) -> _Env:
        merged = cls._copy_env(first)
        for name, origins in second.items():
            merged[name] = cls._merge_sets(merged.get(name, {}), origins)
        return merged

    @staticmethod
    def _env_shape(env: _Env) -> dict[str, frozenset[str]]:
        return {name: frozenset(origins)
                for name, origins in env.items() if origins}

    def _bind(self, name: str, origins: _OriginSet, line: int) -> None:
        hop = f"{name}@{line}"
        rebound: _OriginSet = {}
        for key, (okey, oline, hops) in origins.items():
            if len(hops) < MAX_HOPS:
                hops = hops + (hop,)
            rebound[key] = (okey, oline, hops)
        self.env[name] = self._merge_sets({}, rebound)

    def _taint_name(self, name: str, origins: _OriginSet, line: int) -> None:
        """Mutation: *add* origins to a name (AugAssign, mutator call,
        store through a subscript/attribute)."""
        if not origins:
            return
        hop = f"{name}@{line}"
        added: _OriginSet = {}
        for key, (okey, oline, hops) in origins.items():
            if len(hops) < MAX_HOPS:
                hops = hops + (hop,)
            added[key] = (okey, oline, hops)
        self.env[name] = self._merge_sets(self.env.get(name, {}), added)

    def _edge(self, origin: _Origin, sink: str, line: int, col: int) -> None:
        if len(self.edges) >= MAX_EDGES:
            return
        key, src_line, hops = origin
        mark = (key, src_line, sink, line)
        if mark not in self.edges:
            self.edges[mark] = FlowEdge(
                src=key, src_line=src_line, sink=sink, line=line, col=col,
                hops=tuple(hops))

    # -- statements ---------------------------------------------------------

    def _exec_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _assign_target(self, target: ast.expr, origins: _OriginSet,
                       line: int) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, origins, line)
            return
        if isinstance(target, ast.Starred):
            self._assign_target(target.value, origins, line)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            # a tainted tuple taints every unpacked element (we cannot
            # track per-position provenance through packing)
            for element in target.elts:
                self._assign_target(element, origins, line)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._eval(target.value)
            if isinstance(target, ast.Subscript):
                self._eval(target.slice)
            root = _root_name(target)
            if root is None:
                return
            if root in self.bound:
                self._taint_name(root, origins, line)
            else:
                self.free_mutations.add(root)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            origins = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, origins, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_target(stmt.target, self._eval(stmt.value),
                                    stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            origins = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self._taint_name(stmt.target.id, origins, stmt.lineno)
            else:
                self._assign_target(stmt.target, origins, stmt.lineno)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                for origin in self._eval(stmt.value).values():
                    self._edge(origin, "return", stmt.lineno,
                               stmt.col_offset)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            before = self._copy_env(self.env)
            self._exec_body(stmt.body)
            taken = self.env
            self.env = self._copy_env(before)
            self._exec_body(stmt.orelse)
            self.env = self._merge_envs(taken, self.env)
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._exec_loop(stmt)
        elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            self._exec_try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                origins = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, origins,
                                        stmt.lineno)
            self._exec_body(stmt.body)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
            if stmt.cause is not None:
                self._eval(stmt.cause)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            if stmt.msg is not None:
                self._eval(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
                else:
                    self._eval(target)
        elif isinstance(stmt, ast.Global):
            for name in stmt.names:
                self.free_reads.add(name)
                self.free_mutations.add(name)
        elif isinstance(stmt, _FuncDef) or isinstance(stmt, ast.ClassDef):
            self.env[stmt.name] = {}
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            pass
        elif isinstance(stmt, ast.Match):
            self._eval(stmt.subject)
            before = self._copy_env(self.env)
            merged = self._copy_env(before)
            for case in stmt.cases:
                self.env = self._copy_env(before)
                self._exec_body(case.body)
                merged = self._merge_envs(merged, self.env)
            self.env = merged
        # Pass / Break / Continue / Nonlocal: no dataflow

    def _exec_loop(self, stmt: ast.While | ast.For | ast.AsyncFor) -> None:
        iter_origins: _OriginSet = {}
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_origins = self._eval(stmt.iter)
        else:
            self._eval(stmt.test)
        for _ in range(MAX_LOOP_PASSES):
            shape = self._env_shape(self.env)
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._assign_target(stmt.target, iter_origins, stmt.lineno)
            self._exec_body(stmt.body)
            if self._env_shape(self.env) == shape:
                break
        self._exec_body(stmt.orelse)

    def _exec_try(self, stmt: ast.Try) -> None:
        before = self._copy_env(self.env)
        self._exec_body(stmt.body)
        after_body = self.env
        # a handler may run with the body partially executed: analyse it
        # against the merge of the before/after environments
        handler_entry = self._merge_envs(before, after_body)
        exits = [after_body]
        for handler in stmt.handlers:
            self.env = self._copy_env(handler_entry)
            if handler.name:
                self.env[handler.name] = {}
            self._exec_body(handler.body)
            exits.append(self.env)
        self.env = exits[0]
        self._exec_body(stmt.orelse)
        exits[0] = self.env
        merged = exits[0]
        for exit_env in exits[1:]:
            merged = self._merge_envs(merged, exit_env)
        self.env = merged
        self._exec_body(stmt.finalbody)

    # -- expressions --------------------------------------------------------

    def _eval_many(self, nodes: list[ast.expr]) -> _OriginSet:
        merged: _OriginSet = {}
        for node in nodes:
            merged = self._merge_sets(merged, self._eval(node))
        return merged

    def _eval(self, node: ast.expr) -> _OriginSet:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                if node.id in self.env:
                    return self.env[node.id]
                if node.id not in self.bound and node.id not in self.aliases:
                    self.free_reads.add(node.id)
            return {}
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value)
            dotted = resolve_call_target(node, self.aliases)
            if dotted is not None and any(
                    dotted.endswith(suffix)
                    for suffix in CANDIDATE_ATTR_SUFFIXES):
                key = f"attr:{dotted}"
                return self._merge_sets(
                    base, {key: (key, node.lineno, ())})
            return base
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._merge_sets(self._eval(node.left),
                                    self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            return self._eval_many(node.values)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            # a comparison result is a classification (a bool verdict),
            # not the measured value: evaluate operands for their reads
            # and side effects, return clean
            self._eval(node.left)
            self._eval_many(list(node.comparators))
            return {}
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._merge_sets(self._eval(node.body),
                                    self._eval(node.orelse))
        if isinstance(node, ast.Subscript):
            self._eval(node.slice)
            return self._eval(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._eval_many(node.elts)
        if isinstance(node, ast.Dict):
            merged = self._eval_many([k for k in node.keys if k is not None])
            return self._merge_sets(merged, self._eval_many(node.values))
        if isinstance(node, ast.JoinedStr):
            return self._eval_many(list(node.values))
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            origins = self._eval(node.value)
            self._assign_target(node.target, origins, node.lineno)
            return origins
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._eval_comprehension(node)
        if isinstance(node, ast.Lambda):
            return {}
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            # generator output is the function's output
            if node.value is not None:
                for origin in self._eval(node.value).values():
                    self._edge(origin, "return", node.lineno,
                               node.col_offset)
            return {}
        if isinstance(node, ast.Slice):
            parts = [p for p in (node.lower, node.upper, node.step)
                     if p is not None]
            return self._eval_many(parts)
        return {}

    def _eval_comprehension(self, node: ast.expr) -> _OriginSet:
        """Comprehensions run inline: bind each target from its iterable,
        evaluate conditions for reads, return the element origins."""
        generators = node.generators  # type: ignore[attr-defined]
        saved: dict[str, Optional[_OriginSet]] = {}
        for gen in generators:
            origins = self._eval(gen.iter)
            for name in _target_names(gen.target):
                saved.setdefault(name, self.env.get(name))
            self._assign_target(gen.target, origins, gen.target.lineno)
            for condition in gen.ifs:
                self._eval(condition)
        if isinstance(node, ast.DictComp):
            result = self._merge_sets(self._eval(node.key),
                                      self._eval(node.value))
        else:
            result = self._eval(node.elt)  # type: ignore[attr-defined]
        for name, previous in saved.items():
            if previous is None:
                self.env.pop(name, None)
            else:
                self.env[name] = previous
        return result

    def _eval_call(self, node: ast.Call) -> _OriginSet:
        dotted = resolve_call_target(node.func, self.aliases)
        arg_sets: list[tuple[str, _OriginSet]] = []
        position = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                self._eval(arg.value)
                continue
            arg_sets.append((str(position), self._eval(arg)))
            position += 1
        for keyword in node.keywords:
            if keyword.arg is None:
                self._eval(keyword.value)
                continue
            arg_sets.append((f"k={keyword.arg}", self._eval(keyword.value)))
        merged_args: _OriginSet = {}
        for _, origins in arg_sets:
            merged_args = self._merge_sets(merged_args, origins)

        if dotted is not None and matches_any(dotted, PASSTHROUGH_CALLS):
            return merged_args

        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS):
            root = _root_name(node.func.value)
            if root is not None:
                if root in self.bound:
                    self._taint_name(root, merged_args, node.lineno)
                else:
                    self.free_reads.add(root)
                    self.free_mutations.add(root)
            else:
                self._eval(node.func.value)
            return {}

        if dotted is None:
            # dynamic callee (a call on a call result, a subscripted
            # table, ...): evaluate for reads, treat the result as clean
            self._eval(node.func)
            return {}

        if isinstance(node.func, ast.Attribute):
            root = _root_name(node.func.value)
            if root is not None and root not in self.bound \
                    and root not in self.env:
                self.free_reads.add(root)
            self._eval(node.func.value)

        for spec, origins in arg_sets:
            for origin in origins.values():
                self._edge(origin, f"arg:{dotted}:{spec}", node.lineno,
                           node.col_offset)
        key = f"call:{dotted}@{node.lineno}"
        return {key: (key, node.lineno, ())}


# ---------------------------------------------------------------------------
# handler shapes (CDE013)
# ---------------------------------------------------------------------------

def _handler_types(handler: ast.ExceptHandler) -> tuple[str, ...]:
    node = handler.type
    if node is None:
        return ("*",)
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names: list[str] = []
    for element in elements:
        parts: list[str] = []
        current: ast.expr = element
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
        if parts:
            names.append(parts[0])
    return tuple(sorted(names)) or ("*",)


def _is_silent_body(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Return) and stmt.value is None:
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


def _handler_summaries(
        func: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[
            HandlerSummary, ...]:
    summaries: list[HandlerSummary] = []
    for node in _walk_own_scope(func):
        if not isinstance(node, ast.ExceptHandler):
            continue
        reraises = False
        uses_bound = False
        for inner in ast.walk(node):
            if isinstance(inner, ast.Raise):
                if inner.exc is None:
                    reraises = True
                elif (handler_name := node.name) and isinstance(
                        inner.exc, ast.Name) and inner.exc.id == handler_name:
                    reraises = True
                elif node.name and any(
                        isinstance(sub, ast.Name) and sub.id == node.name
                        for sub in ast.walk(inner.exc)):
                    reraises = True
            elif (isinstance(inner, ast.Name) and node.name
                    and inner.id == node.name
                    and isinstance(inner.ctx, ast.Load)):
                uses_bound = True
        summaries.append(HandlerSummary(
            line=node.lineno, col=node.col_offset,
            types=_handler_types(node), name=node.name or "",
            silent=_is_silent_body(node.body),
            reraises=reraises, uses_bound=uses_bound))
    return tuple(sorted(summaries))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def analyze_function(func: ast.FunctionDef | ast.AsyncFunctionDef,
                     aliases: dict[str, str]) -> FlowResult:
    """Run the intraprocedural analysis over one function definition."""
    scanner = _Scanner(func, aliases)
    return FlowResult(
        flows=tuple(sorted(scanner.edges.values())),
        handlers=_handler_summaries(func),
        free_reads=frozenset(scanner.free_reads),
        free_mutations=frozenset(scanner.free_mutations),
        params=scanner.params,
    )
