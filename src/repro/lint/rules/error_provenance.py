"""CDE013: probe-path handlers must not swallow failure history.

PR 3's resilience layer threads a typed failure record through every
probe: ``ProbeFailure`` carries the ``AttemptRecord`` history that the
degradation tally (and the exported ``resilience`` section) is built
from.  A handler on a probe path that silently discards one of these
exceptions — or catches a history-carrying ``ProbeFailure`` without
using or re-raising it — erases evidence of degradation: the
measurement continues, the number stays plausible, and the loss-rate
accounting silently undercounts.

The check runs on summary handler shapes inside the configured
``probe-paths`` scopes: *silent* handlers (body is only
``pass``/``continue``/``break``/bare ``return``) catching any
``probe-error-types`` entry are flagged; handlers catching a
``probe-history-types`` exception are additionally flagged when they
neither read the bound exception object nor re-raise it.
"""

from __future__ import annotations

from typing import Iterator

from ..config import path_matches_any
from ..findings import Finding
from ..registry import ProjectContext, Rule, register


@register
class ErrorProvenanceRule(Rule):
    """Failure history is measurement data.

    **Rationale.**  The paper's loss-rate handling (§IV) only works if
    every unanswered probe is *accounted*: a swallowed timeout is a
    probe that silently vanished from the degradation tally, which
    skews the very counts the retry budget exists to protect.

    **Example (bad).** ::

        try:
            result = prober.probe(ingress, name)
        except QueryTimeout:
            continue                    # probe vanishes from the tally

    **Example (good).** ::

        except ProbeFailure as failure:
            tally.record(failure.attempts)   # history is consumed
            raise

    **Fix guidance.**  Record the failure (attempt count, tally, row
    flag) or re-raise it so a caller can.  If non-response genuinely
    *is* the signal (the classical IP census treats silence as "no
    resolver"), suppress in place with a justifying comment.  Scopes
    and exception types are the ``probe-paths`` / ``probe-error-types`` /
    ``probe-history-types`` config knobs.
    """

    rule_id = "CDE013"
    name = "error-provenance"
    summary = ("handlers on probe paths must not swallow ProbeFailure/"
               "AttemptRecord history before it reaches the tally")

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        probe_types = frozenset(ctx.config.probe_error_types)
        history_types = frozenset(ctx.config.probe_history_types)
        graph = ctx.graph
        for key in sorted(graph.nodes):
            node = graph.nodes[key]
            if not path_matches_any(node.rel, ctx.config.probe_paths):
                continue
            for handler in node.summary.handlers:
                caught = frozenset(handler.types)
                probe_caught = sorted(caught & probe_types)
                if not probe_caught:
                    continue
                label = "/".join(probe_caught)
                if handler.silent:
                    yield self.finding_at(
                        node.rel, handler.line, handler.col,
                        f"handler for {label} silently swallows the probe "
                        f"failure — record it in the degradation tally or "
                        f"re-raise so the loss stays accounted",
                        symbol=node.qualname,
                    )
                    continue
                history_caught = sorted(caught & history_types)
                if history_caught and not (handler.reraises
                                           or handler.uses_bound):
                    yield self.finding_at(
                        node.rel, handler.line, handler.col,
                        f"handler for {'/'.join(history_caught)} discards "
                        f"the AttemptRecord history it carries — read the "
                        f"bound exception (attempts, tally) or re-raise it",
                        symbol=node.qualname,
                    )
