"""CDE001 — no wall-clock reads outside the virtual clock.

Invariant: all simulated time flows from :class:`repro.net.clock.SimClock`.
A wall-clock read anywhere else couples measurement rows to the host
machine, destroying the bit-for-bit reproducibility that lets a documented
seed regenerate every figure.  ``time.perf_counter`` is *not* flagged: it
is the sanctioned way to sample real elapsed time for performance
counters, which never feed back into measured rows.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import resolve_call_target, walk_with_symbols
from ..config import path_matches_any
from ..effects import WALLCLOCK_READS
from ..findings import Finding
from ..module import ModuleInfo
from ..registry import ProjectContext, Rule, register

#: Fully-qualified callables that read the wall clock — shared with the
#: effect engine's CLOCK leaf table (single source of truth).
BANNED_CALLS = WALLCLOCK_READS


@register
class WallClockRule(Rule):
    rule_id = "CDE001"
    name = "wall-clock"
    summary = "wall-clock reads outside net/clock.py break virtual time"

    def check_module(
        self, module: ModuleInfo, ctx: ProjectContext
    ) -> Iterator[Finding]:
        if path_matches_any(module.rel, ctx.config.wallclock_allow):
            return
        aliases = module.aliases
        for node, symbol in walk_with_symbols(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, aliases)
            if target in BANNED_CALLS:
                yield self.finding(
                    module, node,
                    f"wall-clock call {target}() — simulated time must come "
                    f"from a SimClock (repro/net/clock.py)",
                    symbol=symbol,
                )
