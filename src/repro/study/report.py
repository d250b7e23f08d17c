"""ASCII rendering of the paper's tables and figures.

The bench harness prints the same rows/series the paper reports; these
helpers keep that formatting in one place so benches, examples and the CLI
agree.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core.resilient import ResilienceSummary
from ..net.perf import PerfCounters
from .stats import RatioBreakdown


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """A fixed-width ASCII table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(header.ljust(width)
                             for header, width in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in materialised:
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_cdf_series(series: dict[str, list[float]],
                      xs: Sequence[float],
                      title: str = "",
                      x_label: str = "x") -> str:
    """A CDF table: one row per x, one column per series (as percent)."""
    from .stats import fraction_at_most

    headers = [x_label] + [f"{label} (% <= x)" for label in series]
    rows = []
    for x in xs:
        row: list[object] = [f"{x:g}"]
        for values in series.values():
            row.append(f"{100 * fraction_at_most(values, x):.1f}")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_bubbles(counts: dict[tuple[int, int], int],
                   title: str = "",
                   x_label: str = "ingress IPs",
                   y_label: str = "caches") -> str:
    """Bubble-plot cells as rows sorted by size (the figure's circles)."""
    rows = [(x, y, count)
            for (x, y), count in sorted(counts.items(),
                                        key=lambda item: -item[1])]
    return format_table([x_label, y_label, "networks"], rows, title=title)


def format_ratio_breakdown(breakdowns: dict[str, RatioBreakdown],
                           title: str = "") -> str:
    """Figure 6: category percentages across populations."""
    categories = ["1 IP / 1 cache", "1 IP / >1 cache",
                  ">1 IP / 1 cache", ">1 IP / >1 cache"]
    headers = ["category"] + list(breakdowns.keys())
    rows = []
    for category in categories:
        row: list[object] = [category]
        for breakdown in breakdowns.values():
            row.append(f"{100 * breakdown.as_dict()[category]:.1f}%")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_fractions(fractions: dict[str, float], title: str = "",
                     label: str = "item") -> str:
    rows = [(name, f"{100 * value:.1f}%") for name, value in fractions.items()]
    return format_table([label, "fraction"], rows, title=title)


def format_perf(perf: Optional[PerfCounters],
                title: str = "measurement throughput") -> str:
    """Per-second throughput of a measurement run (wall-clock based).

    Unlike the measured rows, these numbers depend on the machine and the
    worker count — they report how fast the run went, not what it found.
    """
    if perf is None:
        return format_table(["metric", "value"],
                            [("perf", "not collected")], title=title)
    rows: list[Sequence[object]] = [
        ("platforms measured", perf.platforms),
        ("queries sent", perf.queries_sent),
        ("wall seconds", f"{perf.wall_seconds:.3f}"),
        ("queries / second", f"{perf.queries_per_second:.0f}"),
        ("platforms / second", f"{perf.platforms_per_second:.1f}"),
        ("workers", perf.workers),
        ("shards", len(perf.shards)),
    ]
    if perf.shards:
        rows.append(("shard busy seconds", f"{perf.busy_seconds:.3f}"))
    total_probes = perf.fused_probes + perf.fallback_probes
    if total_probes or perf.shards:
        # Fast-path health: a healthy pipelined run serves every direct
        # probe through the fused corridor.  Fallback probes mean the
        # corridor declined a platform (_FastPlan.build: a fault or retry
        # profile, wire fidelity, a closed, deduplicating or prefetching
        # resolver, a forwarder in front of the ingress, a link model
        # outside the inline traversal's gate) and its probes ran at
        # object-per-message speed.  A corridor out of step with the
        # structured path is not a fallback: it shows as wrong state,
        # which the fused-vs-structured differential in
        # tests/test_study_parallel.py catches.
        rows.append(("fused probes", perf.fused_probes))
        rows.append(("fallback probes", perf.fallback_probes))
        ratio = (f"{100 * perf.fused_probes / total_probes:.1f}%"
                 if total_probes else "n/a")
        rows.append(("fast-path ratio", ratio))
    return format_table(["metric", "value"], rows, title=title)


def format_resilience(summary: ResilienceSummary,
                      title: str = "measurement degradation") -> str:
    """What the resilience layer had to do during a run.

    All-zero under the default profiles; callers typically print this only
    when ``summary.degraded_platforms`` (or any fault exposure) is non-zero.
    """
    rows: list[Sequence[object]] = [
        ("platforms measured", summary.platforms),
        ("platforms degraded",
         f"{summary.degraded_platforms} "
         f"({100 * summary.degraded_fraction:.1f}%)"),
        ("probe attempts (retry policy)", summary.attempts),
        ("retries", summary.retries),
        ("probes given up", summary.gave_up),
    ]
    for kind in sorted(summary.fault_exposure):
        rows.append((f"faults injected: {kind}",
                     summary.fault_exposure[kind]))
    return format_table(["metric", "value"], rows, title=title)
