"""CDE012: shard workers must not capture mutable or fork-unsafe state.

Two ways a shard can smuggle cross-shard state past the CDE004 purity
check, both invisible to effect analysis:

* **Module-global capture** — code reachable from ``run_shard`` reads a
  module-level mutable container that some function mutates at runtime.
  Under the in-process executor every shard shares that object; under
  the process pool each worker forks its own copy — either way, rows
  can depend on shard execution order.
* **Fork-unsafe resources in specs** — a live handle (socket, lock,
  open file, ``random.Random`` instance, a memoised ``*.stream`` RNG)
  flowing into a ``ShardTask`` / ``WorldConfig`` constructor.  Specs
  cross process boundaries by pickling; a live resource either fails to
  pickle or silently decouples from its origin.

Value-interning memoisation of immutable objects (the ``DnsName`` intern
table) is deterministic and shard-safe; such files are carved out via
the ``shard-state-allow`` config knob.
"""

from __future__ import annotations

from typing import Iterator

from ..config import path_matches_any
from ..findings import Finding
from ..registry import ProjectContext, Rule, register
from ..taint import FORK_UNSAFE_CALLS, TaintSpec, propagate


@register
class CaptureSafetyRule(Rule):
    """A shard worker is a pure function of its ``ShardTask``.

    **Rationale.**  The parallel engine promises identical rows for any
    worker count.  Module-level mutable state reachable from the worker
    breaks that promise silently (shared under ``workers=0``, forked
    under a pool); a live resource inside a pickled spec breaks it
    loudly or — worse — quietly after the fork.

    **Example (bad).** ::

        _seen: dict[str, int] = {}          # module level

        def probe_once(name):               # reachable from run_shard
            _seen[name] = _seen.get(name, 0) + 1   # cross-shard state

    **Fix guidance.**  Thread the state through the ``ShardTask`` (or a
    local), or make the global immutable.  For resources, construct them
    *inside* the worker from the spec's plain values (profile names,
    seeds) as ``WorldConfig`` does for fault injectors.  Deterministic
    intern tables of immutable values may be carved out via the
    ``shard-state-allow`` knob; spec constructors are configured as
    ``shard-spec-types``.
    """

    rule_id = "CDE012"
    name = "capture-safety"
    summary = ("shard-reachable code must not use runtime-mutated module "
               "globals or put fork-unsafe resources into shard specs")

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        yield from self._check_global_capture(ctx)
        yield from self._check_spec_resources(ctx)

    def _check_global_capture(self, ctx: ProjectContext) -> Iterator[Finding]:
        graph = ctx.graph
        shard_keys = [key for spec in ctx.config.shard_entries
                      for key in graph.resolve_entry(spec)]
        chains = graph.reachable_with_chains(shard_keys)

        # a global only counts as a hazard if some function in its module
        # mutates it at runtime (import-time-only tables are constants)
        mutated: dict[tuple[str, str], str] = {}
        for rel in graph.rels():
            summary = graph.summary_for(rel)
            assert summary is not None
            for func in summary.functions:
                for name in func.global_mutations:
                    mutated.setdefault((rel, name), func.qualname)

        for key in sorted(chains):
            node = graph.nodes[key]
            if path_matches_any(node.rel, ctx.config.shard_state_allow):
                continue
            module = graph.summary_for(node.rel)
            if module is None:
                continue
            chain = " -> ".join(chains[key])
            touched = sorted(set(node.summary.global_reads)
                             | set(node.summary.global_mutations))
            for name in touched:
                writer = mutated.get((node.rel, name))
                if writer is None:
                    continue
                def_line = module.mutable_globals.get(name, node.line)
                verb = ("mutates" if name in node.summary.global_mutations
                        else "reads")
                yield self.finding_at(
                    node.rel, node.line, node.col,
                    f"shard-reachable {node.qualname} {verb} module-level "
                    f"mutable '{name}' (defined line {def_line}, mutated by "
                    f"{writer}) — shard workers must not share cross-shard "
                    f"mutable state (reached via {chain})",
                    symbol=node.qualname,
                )

    def _check_spec_resources(self, ctx: ProjectContext) -> Iterator[Finding]:
        spec = TaintSpec(
            sources=tuple(sorted(FORK_UNSAFE_CALLS)),
            sinks=ctx.config.shard_spec_types,
            sanitizers=(),
        )
        for hit in propagate(ctx.graph, spec).hits():
            yield self.finding_at(
                hit.rel, hit.line, hit.col,
                f"fork-unsafe resource ({hit.source}, created at line "
                f"{hit.source_line}) flows into shard spec {hit.sink}() — "
                f"specs are pickled across processes and must carry only "
                f"plain values (flow: {hit.render_chain()})",
                symbol=hit.qualname,
            )
