"""Project-wide call graph over per-file summaries.

A :class:`ModuleSummary` is everything the whole-program rules need to
know about one file — its functions (with called and referenced names,
direct effect sites, RNG stream labels), its function tables, imports
and suppression comments — in a JSON-serialisable form.  Summaries are
derived from a parsed
:class:`~repro.lint.module.ModuleInfo` once and then cached by content
hash (:mod:`repro.lint.cache`), so a warm run never re-parses unchanged
files: the call graph, the effect propagation (CDE004/CDE007), the
layering check (CDE008) and the stream-hygiene check (CDE009) all run on
summaries alone.

The graph uses the same conservative name-based binding CDE004
established: a call to a simple name binds to every project function of
that name, and a call to a class name binds to that class's
``__init__``.  A function used as a value binds the same way: a name
passed as a call argument, returned or placed in a display, and a read
of a module-level function table (``MEASURES``, local or imported),
which binds every name the table lists — so a callback is audited from
whatever hands it on.  Over-approximation is the right direction for invariant
checking — a false edge widens the audited surface, never hides an
effect.

Two kinds of call bind narrower, because their receiver says what they
can reach.  A call on a receiver that does not start from an imported
name (``self.network.register(...)``, ``plan.build()``) binds only to
methods and classes of that name, never to a module-level function; a
module function is reached by its bare name or through the module's
import.  A method's ``__init__`` call (``super().__init__()``,
``Base.__init__(self)``) binds to the ``__init__`` of its class's bases,
passing through any base that defines none to that base's own bases.

Value references bind narrower the same way.  A bare name the function
binds itself — a parameter, or an assignment, loop, ``with``, ``except``
or comprehension target — holds whatever was put there, which the
binding of that value already accounts for, so it binds to nothing
unless it names a nested ``def``.  An attribute value on a receiver that
does not start from an imported name (``self.step``) binds only to
methods of that name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .astutil import dotted_name, iter_function_defs, resolve_call_target
from .dataflow import FlowEdge, HandlerSummary, analyze_function
from .effects import EffectSite, extract_effect_sites
from .module import ModuleInfo
from .taint import MUTABLE_CONSTRUCTORS, matches_any

#: Bump when the summary layout changes (invalidates cached summaries).
#: Version 2 added the dataflow layer: per-function flow edges, taint
#: sites, handler shapes, global read/mutation sets and parameter lists,
#: plus per-module mutable-global indexes.
#: Version 3 added the cdesync layer: per-function effect traces and
#: replica-of bindings, plus per-module dataclass field orders.
#: Version 4 added the boundedness layer: container-growth sites,
#: hot-loop allocation sites, write-open sites, and the generator/rename
#: flags.
#: Version 5 added the topology layer: address-provenance sites, cache
#: ownership/passing sites, TTL-arithmetic sites, and per-module
#: component declarations.
#: Version 6 dropped the cdesync RNG-idiom folds (``rb``/``gauss`` trace
#: nodes) along with the inline RNG replicas they verified.
#: Version 7 dropped the topology layer again; runtime tests pin what it
#: checked.
#: Version 8 dropped the boundedness layer; runtime tests pin what it
#: checked.
#: Version 9 dropped the taint sites, which no rule read.
#: Version 10 dropped the cdesync layer; a runtime differential pins it.
#: Version 11 added value references: per-function referenced names and
#: per-module function tables.
#: Version 12 added per-module class bases, which bind ``__init__`` calls,
#: and marks method calls (``.name``) apart from plain calls.
#: Version 13 drops value references to the function's own locals and
#: marks attribute value references (``.name``) on non-imported receivers.
SUMMARY_VERSION = 13

#: Pseudo-function key for statements at module / class-body level.
MODULE_SCOPE = "<module>"


@dataclass(frozen=True, order=True)
class StreamCall:
    """One ``*.stream("label")`` / ``make_rng(_, "label")`` call site."""

    label: str           # normalised: f-string fields become "{}"
    line: int
    col: int

    def to_json(self) -> list[object]:
        return [self.label, self.line, self.col]

    @classmethod
    def from_json(cls, raw: list[object]) -> "StreamCall":
        return cls(label=str(raw[0]), line=int(raw[1]),  # type: ignore[arg-type]
                   col=int(raw[2]))


@dataclass(frozen=True, order=True)
class ImportRecord:
    """One import statement, as the layering rule needs it."""

    line: int
    col: int
    level: int           # 0 = absolute, N = number of leading dots
    module: str          # "repro.study.internet", "dns.name", "" (bare from)
    type_checking: bool  # inside an ``if TYPE_CHECKING:`` block

    def to_json(self) -> list[object]:
        return [self.line, self.col, self.level, self.module,
                self.type_checking]

    @classmethod
    def from_json(cls, raw: list[object]) -> "ImportRecord":
        return cls(line=int(raw[0]), col=int(raw[1]),  # type: ignore[arg-type]
                   level=int(raw[2]), module=str(raw[3]),
                   type_checking=bool(raw[4]))


@dataclass(frozen=True)
class FunctionSummary:
    """One function/method as a call-graph node."""

    qualname: str
    name: str
    line: int
    col: int
    calls: tuple[str, ...]             # binding keys: ``name``/``.name``
    effects: tuple[EffectSite, ...]    # direct effect sites
    streams: tuple[StreamCall, ...]    # RNG stream labels requested here
    returns_set: bool                  # return annotation is a set type
    # -- dataflow layer (summary version 2) ---------------------------------
    flows: tuple[FlowEdge, ...] = ()           # intraprocedural def-use edges
    handlers: tuple[HandlerSummary, ...] = ()  # except-handler shapes
    global_reads: tuple[str, ...] = ()         # module mutable globals read
    global_mutations: tuple[str, ...] = ()     # ... and mutated
    params: tuple[str, ...] = ()               # parameter names ("*" marker)
    refs: tuple[str, ...] = ()                 # names used as values (v11)

    def to_json(self) -> dict[str, object]:
        return {
            "qualname": self.qualname, "name": self.name,
            "line": self.line, "col": self.col,
            "calls": list(self.calls),
            "effects": [site.to_json() for site in self.effects],
            "streams": [call.to_json() for call in self.streams],
            "returns_set": self.returns_set,
            "flows": [edge.to_json() for edge in self.flows],
            "handlers": [handler.to_json() for handler in self.handlers],
            "global_reads": list(self.global_reads),
            "global_mutations": list(self.global_mutations),
            "params": list(self.params),
            "refs": list(self.refs),
        }

    @classmethod
    def from_json(cls, raw: dict[str, object]) -> "FunctionSummary":
        return cls(
            qualname=str(raw["qualname"]), name=str(raw["name"]),
            line=int(raw["line"]),  # type: ignore[arg-type]
            col=int(raw["col"]),  # type: ignore[arg-type]
            calls=tuple(str(c) for c in raw["calls"]),  # type: ignore[union-attr]
            effects=tuple(EffectSite.from_json(s)
                          for s in raw["effects"]),  # type: ignore[union-attr]
            streams=tuple(StreamCall.from_json(s)
                          for s in raw["streams"]),  # type: ignore[union-attr]
            returns_set=bool(raw["returns_set"]),
            flows=tuple(FlowEdge.from_json(e)
                        for e in raw["flows"]),  # type: ignore[union-attr]
            handlers=tuple(HandlerSummary.from_json(h)
                           for h in raw["handlers"]),  # type: ignore[union-attr]
            global_reads=tuple(
                str(n) for n in raw["global_reads"]),  # type: ignore[union-attr]
            global_mutations=tuple(
                str(n) for n in raw["global_mutations"]),  # type: ignore[union-attr]
            params=tuple(str(p) for p in raw["params"]),  # type: ignore[union-attr]
            refs=tuple(str(r) for r in raw["refs"]),  # type: ignore[union-attr]
        )


@dataclass
class ModuleSummary:
    """Everything project rules need from one file, sans AST."""

    rel: str
    functions: tuple[FunctionSummary, ...] = ()
    imports: tuple[ImportRecord, ...] = ()
    module_streams: tuple[StreamCall, ...] = ()
    line_suppressions: dict[int, tuple[str, ...]] = field(default_factory=dict)
    file_suppressions: tuple[str, ...] = ()
    #: module-level names bound to mutable containers (name -> def line)
    mutable_globals: dict[str, int] = field(default_factory=dict)
    #: module-level function tables (name -> names the display lists)
    tables: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: class qualname -> simple names of its bases (v12)
    bases: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        from .module import SUPPRESS_ALL

        for scope in (self.file_suppressions,
                      self.line_suppressions.get(line, ())):
            if rule_id in scope or SUPPRESS_ALL in scope:
                return True
        return False

    def to_json(self) -> dict[str, object]:
        return {
            "rel": self.rel,
            "functions": [f.to_json() for f in self.functions],
            "imports": [i.to_json() for i in self.imports],
            "module_streams": [s.to_json() for s in self.module_streams],
            "line_suppressions": {
                str(line): list(rules)
                for line, rules in sorted(self.line_suppressions.items())
            },
            "file_suppressions": list(self.file_suppressions),
            "mutable_globals": {
                name: line
                for name, line in sorted(self.mutable_globals.items())
            },
            "tables": {name: list(listed)
                       for name, listed in sorted(self.tables.items())},
            "bases": {name: list(listed)
                      for name, listed in sorted(self.bases.items())},
        }

    @classmethod
    def from_json(cls, raw: dict[str, object]) -> "ModuleSummary":
        return cls(
            rel=str(raw["rel"]),
            functions=tuple(FunctionSummary.from_json(f)
                            for f in raw["functions"]),  # type: ignore[union-attr]
            imports=tuple(ImportRecord.from_json(i)
                          for i in raw["imports"]),  # type: ignore[union-attr]
            module_streams=tuple(StreamCall.from_json(s)
                                 for s in raw["module_streams"]),  # type: ignore[union-attr]
            line_suppressions={
                int(line): tuple(str(r) for r in rules)
                for line, rules in raw["line_suppressions"].items()  # type: ignore[union-attr]
            },
            file_suppressions=tuple(
                str(r) for r in raw["file_suppressions"]),  # type: ignore[union-attr]
            mutable_globals={
                str(name): int(line)  # type: ignore[call-overload]
                for name, line in raw["mutable_globals"].items()  # type: ignore[union-attr]
            },
            tables={str(name): tuple(refs)
                    for name, refs in raw["tables"].items()},  # type: ignore[union-attr]
            bases={str(name): tuple(listed)
                   for name, listed in raw["bases"].items()},  # type: ignore[union-attr]
        )


# ---------------------------------------------------------------------------
# summarisation
# ---------------------------------------------------------------------------

def _value_names(values: Iterable[Optional[ast.expr]]) -> Iterator[str]:
    """Simple names of the bare ``name`` / ``obj.name`` values among
    ``values`` (``*name`` unpacked too); anything else names nothing."""
    for value in values:
        if isinstance(value, ast.Starred):
            value = value.value
        if isinstance(value, ast.Name):
            yield value.id
        elif isinstance(value, ast.Attribute):
            yield value.attr


def _root_name(node: ast.Attribute) -> Optional[str]:
    """The name an attribute chain starts from (``a`` of ``a.b.c``), or
    ``None`` when it starts from a call or other expression."""
    value = node.value
    while isinstance(value, ast.Attribute):
        value = value.value
    return value.id if isinstance(value, ast.Name) else None


def _display_values(node: ast.AST) -> list[Optional[ast.expr]]:
    """The elements of a list/tuple/set/dict display, else nothing."""
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return list(node.elts)
    if isinstance(node, ast.Dict):
        return [*node.keys, *node.values]
    return []


def _own_locals(nodes: list[ast.AST]) -> set[str]:
    """Names a function binds in its own body (``nodes``): parameters and
    assignment, loop, ``with``, ``except`` and comprehension targets —
    minus its nested ``def`` names and ``global``/``nonlocal`` names."""
    bound: set[str] = set()
    kept: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and \
                not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kept.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            kept.update(node.names)
    return bound - kept


def _called_and_referenced(func: ast.AST, readable: frozenset[str],
                           imported: frozenset[str]
                           ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Binding keys of ``func``'s own body: the simple names it calls
    (``.name`` for a call on a receiver that does not start from an
    ``imported`` name, which can only reach a method), and the names it
    uses as values —
    call arguments, return values and display elements, plus loads of
    ``readable`` names (the file's function tables and its
    ``from``-imported names, any of which may be a table defined
    elsewhere).  A value named by a local of ``func`` is dropped, and an
    attribute value on a receiver that does not start from an
    ``imported`` name is keyed ``.name``."""
    from .effects import _walk_own

    nodes = list(_walk_own(func))
    local = _own_locals(nodes)
    calls: set[str] = set()
    values: list[Optional[ast.expr]] = []
    for node in nodes:
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Attribute) and \
                    _root_name(callee) not in imported:
                calls.add("." + callee.attr)
            else:
                calls.update(_value_names([callee]))
            values.extend(node.args)
            values.extend(kw.value for kw in node.keywords)
        elif isinstance(node, ast.Return):
            values.append(node.value)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id in readable):
            values.append(node)
        else:
            values.extend(_display_values(node))
    refs: set[str] = set()
    for value in values:
        if isinstance(value, ast.Starred):
            value = value.value
        if isinstance(value, ast.Name):
            if value.id not in local:
                refs.add(value.id)
        elif isinstance(value, ast.Attribute):
            refs.add(value.attr if _root_name(value) in imported
                     else "." + value.attr)
    return tuple(sorted(calls)), tuple(sorted(refs))


def _module_assignments(tree: ast.Module
                        ) -> Iterator[tuple[list[str], ast.expr, int]]:
    """``(names, value, line)`` of each module-level ``name = value``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            yield ([t.id for t in stmt.targets if isinstance(t, ast.Name)],
                   stmt.value, stmt.lineno)
        elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
              and isinstance(stmt.target, ast.Name)):
            yield [stmt.target.id], stmt.value, stmt.lineno


def _function_tables(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Module-level names bound to displays that list names, with the
    names listed (nested displays included): the candidate function
    tables a read binds through."""
    tables: dict[str, tuple[str, ...]] = {}
    for targets, value, _line in _module_assignments(tree):
        if not _display_values(value):
            continue
        listed = tuple(sorted({name for node in ast.walk(value) for name
                               in _value_names(_display_values(node))}))
        tables.update((target, listed) for target in targets if listed)
    return tables


def _class_bases(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Every class of the file (qualnames as in ``iter_function_defs``)
    with the simple names of its bases."""
    bases: dict[str, tuple[str, ...]] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                if isinstance(child, ast.ClassDef):
                    bases[qualname] = tuple(_value_names(child.bases))
                visit(child, qualname)
            else:
                visit(child, prefix)

    visit(tree, "")
    return bases


def _literal_label(arg: ast.expr) -> Optional[str]:
    """The static stream label of an argument: literal strings verbatim,
    f-strings as templates with ``{}`` placeholders, else ``None``."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts: list[str] = []
        for value in arg.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("{}")
        return "".join(parts)
    return None


def _stream_calls(func: ast.AST) -> tuple[StreamCall, ...]:
    """``*.stream("label")`` and ``make_rng(seed, "label")`` call sites."""
    from .effects import _walk_own

    calls: list[StreamCall] = []
    for node in _walk_own(func):
        if not isinstance(node, ast.Call):
            continue
        label_arg: Optional[ast.expr] = None
        if isinstance(node.func, ast.Attribute) and node.func.attr == "stream":
            if len(node.args) == 1 and not node.keywords:
                label_arg = node.args[0]
        elif (isinstance(node.func, ast.Name)
              and node.func.id == "make_rng"):
            if len(node.args) >= 2:
                label_arg = node.args[1]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "stream":
                        label_arg = keyword.value
        if label_arg is None:
            continue
        label = _literal_label(label_arg)
        if label is not None:
            calls.append(StreamCall(label=label, line=node.lineno,
                                    col=node.col_offset))
    return tuple(sorted(set(calls)))


def _type_checking_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by ``if TYPE_CHECKING:`` bodies."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = dotted_name(test) if isinstance(
            test, (ast.Name, ast.Attribute)) else None
        if name is None or name.rsplit(".", 1)[-1] != "TYPE_CHECKING":
            continue
        for stmt in node.body:
            end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
            lines.update(range(stmt.lineno, end + 1))
    return lines


def _imports(tree: ast.Module) -> tuple[ImportRecord, ...]:
    guarded = _type_checking_lines(tree)
    records: list[ImportRecord] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                records.append(ImportRecord(
                    line=node.lineno, col=node.col_offset, level=0,
                    module=alias.name,
                    type_checking=node.lineno in guarded,
                ))
        elif isinstance(node, ast.ImportFrom):
            records.append(ImportRecord(
                line=node.lineno, col=node.col_offset,
                level=node.level, module=node.module or "",
                type_checking=node.lineno in guarded,
            ))
    return tuple(sorted(set(records)))


def _mutable_global_defs(tree: ast.Module,
                         aliases: dict[str, str]) -> dict[str, int]:
    """Module-level names bound to mutable containers (dict/list/set
    literals, comprehensions, or mutable-constructor calls).  Dunders
    (``__all__``) are skipped; class attributes are out of scope."""
    defs: dict[str, int] = {}
    for targets, value, line in _module_assignments(tree):
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                     ast.ListComp, ast.SetComp, ast.DictComp))
        if not mutable and isinstance(value, ast.Call):
            dotted = resolve_call_target(value.func, aliases)
            mutable = dotted is not None and matches_any(
                dotted, MUTABLE_CONSTRUCTORS)
        if not mutable:
            continue
        for target in targets:
            if not target.startswith("__"):
                defs.setdefault(target, line)
    return defs


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Build the project-rule summary of one parsed file."""
    from .astutil import annotation_is_set

    aliases = module.aliases
    mutable_globals = _mutable_global_defs(module.tree, aliases)
    global_names = frozenset(mutable_globals)
    tables = _function_tables(module.tree)
    # ``from m import n`` binds ``n`` to the dotted origin "m.n"
    readable = frozenset(tables) | {
        local for local, origin in aliases.items() if "." in origin}
    functions: list[FunctionSummary] = []
    for func, qualname, _is_method in iter_function_defs(module.tree):
        flow = analyze_function(func, aliases)
        calls, refs = _called_and_referenced(func, readable,
                                             frozenset(aliases))
        functions.append(FunctionSummary(
            qualname=qualname,
            name=func.name,
            line=func.lineno,
            col=func.col_offset,
            calls=calls,
            effects=extract_effect_sites(func, aliases),
            streams=_stream_calls(func),
            returns_set=annotation_is_set(func.returns),
            flows=flow.flows,
            handlers=flow.handlers,
            # free names only resolve to this module's globals, so the
            # intersection keeps summaries small without losing a capture
            global_reads=tuple(sorted(flow.free_reads & global_names)),
            global_mutations=tuple(sorted(
                flow.free_mutations & global_names)),
            params=flow.params,
            refs=refs,
        ))
    functions.sort(key=lambda f: (f.line, f.col, f.qualname))
    return ModuleSummary(
        rel=module.rel,
        functions=tuple(functions),
        imports=_imports(module.tree),
        # _walk_own skips function bodies, so scanning the module node
        # yields exactly the module- and class-level stream calls.
        module_streams=_stream_calls(module.tree),
        line_suppressions={line: tuple(sorted(rules))
                           for line, rules in
                           module.line_suppressions.items()},
        file_suppressions=tuple(sorted(module.file_suppressions)),
        mutable_globals=mutable_globals,
        tables=tables,
        bases=_class_bases(module.tree),
    )


def set_returning_names(summaries: Iterable[ModuleSummary]) -> frozenset[str]:
    """Simple names of callables annotated to return sets, project-wide."""
    return frozenset(
        func.name
        for summary in summaries
        for func in summary.functions
        if func.returns_set
    )


# ---------------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphNode:
    """One function in the project call graph."""

    key: str             # "<rel>::<qualname>"
    rel: str
    qualname: str
    name: str
    line: int
    col: int
    effects: tuple[EffectSite, ...]
    streams: tuple[StreamCall, ...]
    summary: FunctionSummary


class CallGraph:
    """Conservative name-bound call graph over module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]):
        self.nodes: dict[str, GraphNode] = {}
        self._by_name: dict[str, list[str]] = {}
        self._class_inits: dict[str, list[str]] = {}
        #: class simple name -> the (rel, qualname) of each class so named
        self._classes: dict[str, list[tuple[str, str]]] = {}
        #: method simple name -> keys of the class-level defs so named
        self._methods: dict[str, list[str]] = {}
        #: table name -> every name a project table of that name lists
        self._tables: dict[str, set[str]] = {}
        self._callees: dict[str, tuple[str, ...]] = {}
        self._callers: dict[str, tuple[str, ...]] = {}
        self._summaries = {s.rel: s for s in summaries}

        for rel in sorted(self._summaries):
            summary = self._summaries[rel]
            for name, listed in summary.tables.items():
                self._tables.setdefault(name, set()).update(listed)
            for qualname in summary.bases:
                self._classes.setdefault(
                    qualname.rsplit(".", 1)[-1], []).append((rel, qualname))
            for func in summary.functions:
                key = f"{rel}::{func.qualname}"
                self.nodes[key] = GraphNode(
                    key=key, rel=rel, qualname=func.qualname, name=func.name,
                    line=func.line, col=func.col, effects=func.effects,
                    streams=func.streams, summary=func,
                )
                self._by_name.setdefault(func.name, []).append(key)
                if func.qualname.rpartition(".")[0] in summary.bases:
                    self._methods.setdefault(func.name, []).append(key)
                if func.name == "__init__" and "." in func.qualname:
                    class_path = func.qualname.rsplit(".", 1)[0]
                    class_simple = class_path.rsplit(".", 1)[-1]
                    self._class_inits.setdefault(class_simple, []).append(key)

        callers: dict[str, list[str]] = {key: [] for key in self.nodes}
        for key in sorted(self.nodes):
            targets: list[str] = []
            summary = self.nodes[key].summary
            for name in summary.calls:
                if name in ("__init__", ".__init__"):
                    targets.extend(self._init_call_targets(key))
                elif name.startswith("."):
                    targets.extend(self._methods.get(name[1:], ()))
                    targets.extend(self._class_inits.get(name[1:], ()))
                else:
                    targets.extend(self._by_name.get(name, ()))
                    targets.extend(self._class_inits.get(name, ()))
            # A value reference binds to functions only: the name itself,
            # or every name a table of that name lists; ``.name`` (an
            # attribute of a non-imported receiver) to methods only.
            for name in summary.refs:
                if name.startswith("."):
                    targets.extend(self._methods.get(name[1:], ()))
                    continue
                for bound in (name, *sorted(self._tables.get(name, ()))):
                    targets.extend(self._by_name.get(bound, ()))
            resolved = tuple(sorted(set(targets)))
            self._callees[key] = resolved
            for target in resolved:
                callers[target].append(key)
        self._callers = {key: tuple(sorted(set(names)))
                         for key, names in callers.items()}

    def _init_call_targets(self, key: str) -> list[str]:
        """What an ``__init__`` call in function ``key`` binds to.

        In a method, the ``__init__`` of each base of its class — or, for
        a base that defines none, of that base's bases in turn.  Anywhere
        else the callee's class is unknown, so every ``__init__``.
        """
        node = self.nodes[key]
        owner = node.qualname.rpartition(".")[0]
        bases = self._summaries[node.rel].bases
        if owner not in bases:
            return list(self._by_name.get("__init__", ()))
        targets: list[str] = []
        seen: set[str] = set()
        pending = list(bases[owner])
        while pending:
            base = pending.pop()
            if base in seen:
                continue
            seen.add(base)
            for rel, qualname in self._classes.get(base, ()):
                init = f"{rel}::{qualname}.__init__"
                if init in self.nodes:
                    targets.append(init)
                else:
                    pending.extend(self._summaries[rel].bases[qualname])
        return targets

    # -- structure ----------------------------------------------------------

    def callees(self, key: str) -> tuple[str, ...]:
        return self._callees.get(key, ())

    def callers(self, key: str) -> tuple[str, ...]:
        return self._callers.get(key, ())

    def bound_keys(self, name: str) -> tuple[str, ...]:
        """Node keys a simple callee name binds to (functions of that
        name plus ``__init__`` of classes of that name)."""
        return tuple(sorted(set(self._by_name.get(name, []))
                            | set(self._class_inits.get(name, []))))

    def summary_for(self, rel: str) -> Optional[ModuleSummary]:
        return self._summaries.get(rel)

    def rels(self) -> tuple[str, ...]:
        return tuple(sorted(self._summaries))

    def binding_fingerprint(self) -> str:
        """Hash of every function key, the function tables and the class
        bases.  When it changes, name-based binding may have changed for
        *any* caller (a table read binds through another file's table; a
        ``.name`` call binds only to methods, so a def moving into or out
        of a class moves its edges; a deleted def drops its callers'
        edges though the name lives on elsewhere), so cached propagation
        results must be discarded wholesale."""
        import hashlib

        payload = "|".join(sorted(self.nodes)) + "||" + "|".join(
            f"{name}={','.join(sorted(listed))}"
            for name, listed in sorted(self._tables.items())) + "||" + "|".join(
            f"{rel}::{qualname}={','.join(summary.bases[qualname])}"
            for rel, summary in sorted(self._summaries.items())
            for qualname in sorted(summary.bases))
        return hashlib.sha256(payload.encode()).hexdigest()

    def resolve_entry(self, spec: str) -> list[str]:
        """Node keys for a ``path-suffix::qualname`` entry-point spec."""
        suffix, _, funcname = spec.partition("::")
        if not funcname:
            return []
        matches: list[str] = []
        for rel in sorted(self._summaries):
            if ("/" + rel).endswith("/" + suffix.lstrip("/")):
                key = f"{rel}::{funcname}"
                if key in self.nodes:
                    matches.append(key)
        return matches

    # -- reachability -------------------------------------------------------

    def reachable_with_chains(
        self, entries: Iterable[str],
    ) -> dict[str, tuple[str, ...]]:
        """BFS from ``entries``: one shortest qualname chain per node."""
        chains: dict[str, tuple[str, ...]] = {}
        queue: list[str] = []
        for key in sorted(set(entries)):
            if key in self.nodes and key not in chains:
                chains[key] = (self.nodes[key].qualname,)
                queue.append(key)
        head = 0
        while head < len(queue):
            current = queue[head]
            head += 1
            for callee in self.callees(current):
                if callee in chains:
                    continue
                chains[callee] = chains[current] + (
                    self.nodes[callee].qualname,)
                queue.append(callee)
        return chains

    def reverse_reachable(self, seeds: Iterable[str]) -> set[str]:
        """Seeds plus every transitive caller of a seed."""
        seen: set[str] = set()
        stack = [key for key in seeds if key in self.nodes]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(self.callers(key))
        return seen
