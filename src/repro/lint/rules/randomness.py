"""CDE002 — all randomness flows through seeded streams.

Invariant: every stochastic draw derives from one root seed via the named
streams of :mod:`repro.net.rng` (or an explicit ``rng: random.Random``
parameter).  Three syntactic hazards are flagged:

* calls on the ``random`` module at import time (they perturb — or depend
  on — global interpreter state before any seed is applied);
* ``random.Random()`` constructed without a seed argument, anywhere;
* draws on the *global* ``random`` module (``random.random()``,
  ``random.choice(...)`` …) anywhere — global-state draws make results
  depend on call ordering across unrelated components.

Annotations like ``rng: random.Random`` and seeded constructions
``random.Random(seed)`` are of course fine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import module_level_nodes, resolve_call_target, \
    walk_with_symbols
from ..config import path_matches_any
from ..effects import GLOBAL_RANDOM_DRAWS
from ..findings import Finding
from ..module import ModuleInfo
from ..registry import ProjectContext, Rule, register

#: Draw/state functions of the global ``random`` module — shared with the
#: effect engine's RNG leaf table (single source of truth).
GLOBAL_DRAWS = GLOBAL_RANDOM_DRAWS


@register
class RandomnessRule(Rule):
    rule_id = "CDE002"
    name = "seeded-randomness"
    summary = "global or unseeded randomness escapes the seed-derivation scheme"

    def check_module(
        self, module: ModuleInfo, ctx: ProjectContext
    ) -> Iterator[Finding]:
        if path_matches_any(module.rel, ctx.config.rng_allow):
            return
        aliases = module.aliases
        import_time = {
            id(node) for node in module_level_nodes(module.tree)
        }
        for node, symbol in walk_with_symbols(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, aliases)
            if target is None or not (
                target == "random.Random" or target.startswith("random.")
            ):
                continue
            if target == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module, node,
                        "unseeded random.Random() — seed it via "
                        "repro/net/rng.py (derive_seed / RngFactory)",
                        symbol=symbol,
                    )
                continue
            if target in GLOBAL_DRAWS:
                where = ("at import time "
                         if id(node) in import_time else "")
                yield self.finding(
                    module, node,
                    f"global-state call {target}() {where}— draw from a "
                    f"named stream (repro/net/rng.py) or an explicit "
                    f"rng parameter instead",
                    symbol=symbol,
                )
            elif id(node) in import_time:
                yield self.finding(
                    module, node,
                    f"module-level call {target}() executes at import time "
                    f"— randomness must be constructed inside seeded "
                    f"components",
                    symbol=symbol,
                )
