"""Rule base class, registry and project-wide context.

Rules register themselves via the :func:`register` decorator at import
time (importing :mod:`repro.lint.rules` pulls in every rule module).  A
rule sees one module at a time through :meth:`Rule.check_module`;
whole-program rules (the shard-purity call-graph walk) additionally
implement :meth:`Rule.check_project`, which runs once after every module
has been parsed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Type

from .callgraph import CallGraph, ModuleSummary, summarize_module
from .config import LintConfig
from .effects import Effect, EffectAnalysis
from .findings import Finding
from .module import ModuleInfo


@dataclass
class ProjectContext:
    """Everything a rule may consult beyond the module it is checking.

    Per-module rules see parsed :class:`ModuleInfo` objects; project
    rules run on :class:`ModuleSummary` objects alone (via :attr:`graph`
    and :attr:`effects`), which is what makes warm cache runs possible —
    on a warm run :attr:`modules` holds only the files that were actually
    re-parsed, while :attr:`summaries` always covers the whole tree.
    """

    config: LintConfig
    modules: list[ModuleInfo] = field(default_factory=list)
    #: Whole-tree module summaries, keyed by rel path (cache-restorable).
    summaries: dict[str, ModuleSummary] = field(default_factory=dict)
    #: Simple names of project callables whose return annotation is a
    #: set type — used by CDE003 to flag iteration over their results.
    set_returning_callables: frozenset[str] = frozenset()
    #: Cached effect signatures from a previous run (same binding
    #: fingerprint), plus the rel paths re-summarised this run; when both
    #: are set, effect propagation touches only the dirty subgraph.
    cached_signatures: Optional[dict[str, frozenset[Effect]]] = None
    dirty_rels: Optional[frozenset[str]] = None
    _graph: Optional[CallGraph] = field(default=None, repr=False)
    _effects: Optional[EffectAnalysis] = field(default=None, repr=False)

    @property
    def graph(self) -> CallGraph:
        """The project call graph, built lazily from summaries."""
        if self._graph is None:
            summaries = self.summaries or {
                module.rel: summarize_module(module)
                for module in self.modules
            }
            self._graph = CallGraph(summaries.values())
        return self._graph

    @property
    def effects(self) -> EffectAnalysis:
        """Fixed-point effect signatures, built lazily over :attr:`graph`."""
        if self._effects is None:
            self._effects = EffectAnalysis.build(
                self.graph,
                cached=self.cached_signatures,
                dirty_rels=self.dirty_rels,
            )
        return self._effects


class Rule:
    """Base class for cdelint rules."""

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    #: Rules with ``default_enabled = False`` (audit modes like CDE014)
    #: run only when explicitly selected, never in a default run.
    default_enabled: bool = True

    def check_module(
        self, module: ModuleInfo, ctx: ProjectContext
    ) -> Iterator[Finding]:
        return iter(())

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        return iter(())

    def finding(self, module: ModuleInfo, node: ast.AST, message: str,
                symbol: str = "") -> Finding:
        return Finding(
            path=module.rel,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
            symbol=symbol,
        )

    def finding_at(self, rel: str, line: int, col: int, message: str,
                   symbol: str = "") -> Finding:
        """A finding at a summary-recorded location (no AST in hand)."""
        return Finding(
            path=rel, line=line, col=col, rule_id=self.rule_id,
            message=message, symbol=symbol,
        )


_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def all_rules() -> dict[str, Type[Rule]]:
    """Registered rules, importing the bundled rule set on first use."""
    from . import rules as _rules  # noqa: F401  (registers on import)

    return dict(sorted(_REGISTRY.items()))


def instantiate(selected: Iterable[str] | None = None,
                disabled: Iterable[str] = ()) -> list[Rule]:
    """Rule instances for a run, honouring ``--select`` and config disables."""
    registry = all_rules()
    if selected is not None:
        wanted = [rule_id.upper() for rule_id in selected]
        unknown = [rule_id for rule_id in wanted if rule_id not in registry]
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
        return [registry[rule_id]() for rule_id in wanted]
    skip = {rule_id.upper() for rule_id in disabled}
    return [cls() for rule_id, cls in registry.items()
            if rule_id not in skip and cls.default_enabled]
