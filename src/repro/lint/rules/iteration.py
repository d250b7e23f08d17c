"""CDE003 — no unordered iteration on result paths.

Invariant: iteration order must never leak into measurement rows.  A
``for`` loop (or comprehension) over a ``set`` produces rows whose order
depends on hash seeding and insertion history — the classic way a
refactor silently reorders an exported table.  Inside the configured
result paths (``study/``, ``core/``, ``server/`` by default) iteration
over a set-valued expression must go through ``sorted(...)``.

Detection is syntactic: set literals/comprehensions, ``set()`` /
``frozenset()`` calls, set-operator results, local names bound or
annotated as sets, and calls to project functions whose *return
annotation* is a set type (collected project-wide).  Membership tests and
aggregations (``in``, ``len``, ``sum`` …) are not iteration and are not
flagged; ``list()`` / ``tuple()`` / ``enumerate()`` wrappers are unwrapped
because they preserve the unordered underlying order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import is_set_expression, iter_function_defs, local_set_names
from ..config import path_matches_any
from ..findings import Finding
from ..module import ModuleInfo
from ..registry import ProjectContext, Rule, register

#: Wrappers that preserve (unordered) iteration order of their argument.
ORDER_PRESERVING = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})


def _unwrap(node: ast.expr) -> ast.expr:
    while (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id in ORDER_PRESERVING and node.args):
        node = node.args[0]
    return node


@register
class UnorderedIterationRule(Rule):
    rule_id = "CDE003"
    name = "unordered-iteration"
    summary = "set iteration on result paths leaks order into measurements"

    def check_module(
        self, module: ModuleInfo, ctx: ProjectContext
    ) -> Iterator[Finding]:
        if not path_matches_any(module.rel, ctx.config.ordered_paths):
            return
        set_returning = ctx.set_returning_callables
        # Functions first (so findings get their qualname), module scope
        # last to catch import-time loops; ``seen`` dedups the overlap.
        scopes: list[tuple[ast.AST, str]] = [
            (func, qualname)
            for func, qualname, _ in iter_function_defs(module.tree)
        ]
        scopes.append((module.tree, ""))
        seen: set[int] = set()
        for scope, symbol in scopes:
            names = local_set_names(scope, set_returning)
            for node in ast.walk(scope):
                iterables: list[ast.expr] = []
                if isinstance(node, ast.For):
                    iterables.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    iterables.extend(gen.iter for gen in node.generators)
                for iterable in iterables:
                    target = _unwrap(iterable)
                    if id(target) in seen:
                        continue
                    # Claimed by the innermost scope that examines it —
                    # whatever the verdict — so the module-scope pass
                    # cannot re-judge it with other functions' names.
                    seen.add(id(target))
                    if is_set_expression(target, names, set_returning):
                        yield self.finding(
                            module, iterable,
                            "iteration over a set — wrap in sorted(...) so "
                            "row order cannot depend on hashing or "
                            "insertion history",
                            symbol=symbol,
                        )
