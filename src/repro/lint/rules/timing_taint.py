"""CDE010: timing-tainted values must not reach counting/export sinks.

The paper's indirect techniques (§IV-B3) count caches by *classifying*
latencies into hits and misses — the latency itself is a side channel,
never a count.  This rule enforces that boundary with dataflow: any
clock- or RTT-derived value (``clock.now`` reads, ``.rtt`` /
``.dns_rtt`` fields, the CDE001 wall-clock leaves) that flows into a
counting or export sink (``CacheCountEstimate``, ``PlatformMeasurement``,
the report serialisers) without first crossing the hit/miss classifier
(``LatencyClassifier.fit`` / ``is_miss`` / ``split_bimodal``) is a
finding, reported with its def-use witness chain.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from ..registry import ProjectContext, Rule, register
from ..taint import TaintSpec, propagate


@register
class TimingTaintRule(Rule):
    """Latency is a side channel, not a count.

    **Rationale.**  A raw timing value that lands in counting arithmetic
    or an exported row couples results to measurement latency — the
    output is still a plausible number, so no test catches it.  The only
    sanctioned route from a latency to a count is the hit/miss
    classifier, which turns the time into a classification.

    **Example (bad).** ::

        samples.append(result.dns_rtt)
        return CacheCountEstimate(lower_bound=samples[0], ...)

    **Example (good).** ::

        threshold, slow_count = split_bimodal(samples)   # sanitizer
        return CacheCountEstimate(lower_bound=slow_count, ...)

    **Fix guidance.**  Route the value through a configured sanitizer
    (``timing-sanitizers``), or — if the flow is genuinely sanctioned
    telemetry — add the destination to the ``timing-sinks`` carve-out or
    suppress in place with a justification.  Sources, sinks and
    sanitizers are the ``timing-sources`` / ``timing-sinks`` /
    ``timing-sanitizers`` config knobs.
    """

    rule_id = "CDE010"
    name = "timing-taint"
    summary = ("clock/RTT-derived values must reach counting or export "
               "sinks only through the hit/miss classifier")

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        spec = TaintSpec(
            sources=ctx.config.timing_sources,
            sinks=ctx.config.timing_sinks,
            sanitizers=ctx.config.timing_sanitizers,
        )
        for hit in propagate(ctx.graph, spec).hits():
            yield self.finding_at(
                hit.rel, hit.line, hit.col,
                f"timing value {hit.source} (read at line {hit.source_line}) "
                f"reaches counting sink {hit.sink}() without crossing the "
                f"hit/miss classifier (flow: {hit.render_chain()})",
                symbol=hit.qualname,
            )
