"""CDE015 / CDE016 — the cdesync replica-equivalence family.

Invariant: a fused fast-path replica (``# cdelint: replica-of=`` marker
or ``[tool.cdelint] replicas`` binding) is behaviourally interchangeable
with its structured original.  The pipelined engine's speedup rests on
`_FastPlan` replaying the prober→platform→cache→upstream path's exact
RNG draws, clock advances and stat/log mutations; an edit to either side
that desynchronizes them either silently degrades every probe to the
structured fallback or — worse — shifts the seeded byte-identity the
counting techniques depend on.

**CDE015 replica-drift** compiles both sides' canonical effect traces
(:mod:`repro.lint.trace`) to token NFAs and decides trace inclusion
(:mod:`repro.lint.sync`): every observable-effect sequence the replica
can produce must be producible by the original.  A violation is reported
with a dual witness — the first diverging replica effect with its
call-hop chain, and the effects the original expects at that point with
theirs.  Verdicts are cached per run digest (config + every stored trace
+ binding), so warm runs replay them byte-identically without
recompiling a single NFA.

**CDE016 layout-drift** statically checks every constructed-``__dict__``
literal (the ``_obj_new``/``_obj_setattr`` fast-allocation idiom)
against the *declared field order* of the dataclass it instantiates.
``object.__new__`` bypasses ``__init__``, so a dataclass field reorder
silently changes the constructed objects' ``__dict__`` order — and with
it repr/asdict/iteration order — without any runtime error.  This
subsumes the engine's import-time ``_check_dataclass_layout`` spot check
with a compile-time proof over *all* such literals.
"""

from __future__ import annotations

import json
from typing import Iterator

from ..findings import Finding
from ..registry import ProjectContext, Rule, register
from ..sync import (Binding, SyncIndex, SyncTables, TokenMeta, Violation,
                    check_pair, collect_bindings)


def _format_expected(expected: tuple[tuple[str, TokenMeta], ...]) -> str:
    if not expected:
        return "no further observable effect"
    parts = [f"{label} ({meta.describe()})" for label, meta in expected[:3]]
    if len(expected) > 3:
        parts.append(f"... {len(expected) - 3} more")
    return " or ".join(parts)


def _drift_message(binding: Binding, violation: Violation) -> str:
    pair = (f"replica of {binding.spec}")
    if violation.kind == "accept":
        return (f"{pair}: replica can complete while the original still "
                f"has a mandatory effect pending — original expects "
                f"{_format_expected(violation.expected)}")
    meta = violation.meta
    where = meta.describe() if meta is not None else "?"
    return (f"{pair}: replica effect {violation.token} ({where}) cannot "
            f"be matched by the original at this point — original "
            f"expects {_format_expected(violation.expected)}")


@register
class ReplicaDriftRule(Rule):
    """CDE015: a fused replica's effect trace must stay within its
    structured original's.

    For each bound pair the rule compiles both functions' stored effect
    traces into NFAs over a canonical alphabet — ``rng:<method>`` draws
    (``randrange``/``randint`` as ``rng:randbelow``), ``clock`` writes,
    ``mut:<attr>``
    mutations of configured observable state, ``sync:<original>``
    cross-pair calls — and checks *trace inclusion* with adjacent-
    duplicate collapse on mutations and sync calls.  Replica effects are
    mandatory; original-side callee expansions carry an empty
    alternative (open-world calls may be pure), so the check is exactly
    one-sided: the replica may skip optional original work but can never
    emit an effect, or an ordering of effects, the original cannot.
    Pairs listed in ``replicas-assume`` are canonicalized but not
    checked.  An unresolvable ``replica-of`` target is itself a finding:
    a binding that silently stops resolving is a silently unchecked
    fast path.
    """

    rule_id = "CDE015"
    name = "replica-drift"
    summary = "fused replica's effect trace diverges from its original"

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        if ctx.cached_sync is not None:
            yield from ctx.cached_sync
            return
        findings = list(self._compute(ctx))
        ctx.computed_sync = findings
        yield from findings

    def _compute(self, ctx: ProjectContext) -> Iterator[Finding]:
        bindings, errors = collect_bindings(ctx.summaries, ctx.config)
        for error in errors:
            yield self.finding_at(
                error.rel, error.line, 0, error.message,
                symbol=error.qualname)
        if not bindings:
            return
        tables = SyncTables.from_config(ctx.config)
        index = SyncIndex(ctx.summaries, ctx.graph, tables, bindings)
        for binding in bindings:
            if not binding.checked:
                continue
            replica_rel, replica_qual = binding.replica_key.split("::", 1)
            if index.trace(binding.replica_key) is None:
                # A replica with no observable effects mirrors nothing.
                continue
            if index.function(binding.original_key) is None:
                continue  # collect_bindings already vetted resolution
            violation = check_pair(index, binding)
            if violation is not None:
                yield self.finding_at(
                    replica_rel, binding.line, 0,
                    _drift_message(binding, violation),
                    symbol=replica_qual)


@register
class LayoutDriftRule(Rule):
    """CDE016: constructed-``__dict__`` literals must match dataclass
    field order.

    The fused fast path allocates result objects with ``object.__new__``
    plus a ``__dict__`` literal, bypassing ``__init__`` for speed.  That
    is only equivalent to normal construction if the literal lists the
    dataclass's fields in declaration order — ``__dict__`` order is
    insertion order, and repr/asdict/comparison helpers iterate it.  The
    trace extractor records every such literal as a layout node with the
    statically-resolved class name; this rule checks each against the
    per-module dataclass field index in the summaries.  A class name
    defined as a dataclass nowhere in the tree is skipped (opaque or
    external types); multiple same-named dataclasses accept any of
    their orders.
    """

    rule_id = "CDE016"
    name = "layout-drift"
    summary = "constructed __dict__ order diverges from dataclass fields"

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        declared: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for rel in sorted(ctx.summaries):
            for name, fields in sorted(
                    ctx.summaries[rel].dataclass_fields.items()):
                declared.setdefault(name, []).append((rel, fields))
        if not declared:
            return
        for rel in sorted(ctx.summaries):
            for func in ctx.summaries[rel].functions:
                if not func.trace_json:
                    continue
                for cls, fields, line in _layout_nodes(
                        json.loads(func.trace_json)):
                    candidates = declared.get(cls)
                    if not candidates:
                        continue
                    if any(tuple(fields) == order
                           for _rel, order in candidates):
                        continue
                    src_rel, order = candidates[0]
                    yield self.finding_at(
                        rel, line, 0,
                        f"__dict__ literal for {cls} lists fields "
                        f"({', '.join(fields)}) but the dataclass "
                        f"({src_rel}) declares ({', '.join(order)}) — "
                        f"object.__new__ construction must follow "
                        f"declaration order",
                        symbol=func.qualname)


def _layout_nodes(tree: list) -> Iterator[tuple[str, list[str], int]]:
    """Every ``["layout", cls, fields, line]`` node in a trace tree."""
    kind = tree[0]
    if kind == "layout":
        yield str(tree[1]), [str(f) for f in tree[2]], int(tree[3])
    elif kind in ("seq", "alt"):
        for child in tree[1]:
            yield from _layout_nodes(child)
    elif kind == "loop":
        yield from _layout_nodes(tree[1])
    elif kind == "while":
        yield from _layout_nodes(tree[1])
        yield from _layout_nodes(tree[2])
    elif kind == "try":
        yield from _layout_nodes(tree[1])
        for handler in tree[2]:
            yield from _layout_nodes(handler)
