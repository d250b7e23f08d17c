"""CDE007 — effect contracts on measurement-critical roots.

The paper's counting techniques assume every probe is a deterministic
function of the seeded world.  That assumption has named owners: the
shard worker (``run_shard``), the fault-injection decision path
(``FaultInjector.decide``), and the retry/backoff arithmetic.  This rule
takes the configured ``effect-roots`` (``path::qualname`` specs, see
:class:`~repro.lint.config.LintConfig`) and reports every CLOCK / RNG / IO / ENV leaf effect
whose definition is reachable from a root through the project call graph
— with the shortest witness chain, so the report reads as a proof.

Carve-outs mirror the per-file rules: CLOCK sites inside
``wallclock-allow`` files and RNG sites inside ``rng-allow`` files are
sanctioned (that is where the virtual clock and the seed-derivation
scheme live).  For roots that are *also* shard-purity entry points
(CDE004), ENV effects and raw ``socket`` use are CDE004's territory and
are not double-reported here.
"""

from __future__ import annotations

from typing import Iterator

from ..config import path_matches_any
from ..effects import Effect
from ..findings import Finding
from ..registry import ProjectContext, Rule, register

#: The effect axes a contracted root must not reach.  MUTATES_GLOBAL and
#: UNORDERED are tracked in signatures but owned by other rules.
CONTRACT_EFFECTS = frozenset({
    Effect.CLOCK, Effect.RNG, Effect.IO, Effect.ENV,
})


def _is_socket_label(label: str) -> bool:
    return (label == "socket" or label.startswith("socket.")
            or label == "import socket")


@register
class EffectContractRule(Rule):
    rule_id = "CDE007"
    name = "effect-contract"
    summary = "CLOCK/RNG/IO/ENV effect reachable from a contracted root"

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        graph = ctx.graph
        shard_keys = {
            key
            for spec in ctx.config.shard_entries
            for key in graph.resolve_entry(spec)
        }

        seen: set[tuple[str, int, int, str]] = set()
        for spec in ctx.config.effect_roots:
            for root in graph.resolve_entry(spec):
                signature = ctx.effects.signature_of(root)
                if not signature & CONTRACT_EFFECTS:
                    continue  # propagated signature proves the root clean
                root_name = graph.nodes[root].qualname
                skip_shard_overlap = root in shard_keys
                chains = graph.reachable_with_chains([root])
                for key in sorted(chains):
                    node = graph.nodes[key]
                    chain = " -> ".join(chains[key])
                    for site in node.effects:
                        effect = Effect(site.effect)
                        if effect not in CONTRACT_EFFECTS:
                            continue
                        if effect is Effect.CLOCK and path_matches_any(
                                node.rel, ctx.config.wallclock_allow):
                            continue
                        if effect is Effect.RNG and path_matches_any(
                                node.rel, ctx.config.rng_allow):
                            continue
                        if skip_shard_overlap and (
                                effect is Effect.ENV
                                or _is_socket_label(site.label)):
                            continue  # reported by CDE004
                        mark = (node.rel, site.line, site.col, site.label)
                        if mark in seen:
                            continue  # already reported from an earlier root
                        seen.add(mark)
                        yield self.finding_at(
                            node.rel, site.line, site.col,
                            f"{site.label} ({effect.value}) reachable from "
                            f"effect-contract root {root_name} (via {chain}) "
                            f"— contracted paths must be a deterministic "
                            f"function of the seeded world",
                            symbol=node.qualname,
                        )
