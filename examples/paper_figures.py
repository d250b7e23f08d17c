#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

This is the one-shot reproduction script: it builds a world, generates all
three network populations, measures them with their dataset's access
channel, and prints Table I and Figures 2–8 in the paper's presentation,
with the paper's anchor values quoted alongside.  (The benchmark suite
regenerates the same artifacts with assertions; this script is the
human-readable tour.)

Without ``--small`` the populations have the paper's sizes (1,739 open
resolvers, 1,000 SMTP servers, 240 ad-network platforms); each one is
measured by one census, the same path ``repro-cde census`` takes.

Run:  python examples/paper_figures.py            (~45 s on 2 CPUs)
      python examples/paper_figures.py --small    (quick pass)
"""

import sys

from repro.study import (
    TABLE1_PAPER_ROWS,
    build_world,
    format_bubbles,
    format_cdf_series,
    format_ratio_breakdown,
    format_table,
    regenerate_all,
)
from repro.study.figures import DEFAULT_CAPS, DEFAULT_SIZES


def main() -> None:
    small = "--small" in sys.argv
    sizes = ({"open-resolvers": 15, "email-servers": 10, "ad-network": 10}
             if small else DEFAULT_SIZES)
    world = build_world(seed=1701)
    data = regenerate_all(world, sizes=sizes, caps=DEFAULT_CAPS,
                          table1_domains=60 if small else 250, seed=1701)

    # ---- Table I --------------------------------------------------------
    paper = dict(TABLE1_PAPER_ROWS)
    rows = [(label, f"{100 * fraction:.1f}%", f"{100 * paper[label]:.1f}%")
            for label, fraction in data.table1.table1_rows()]
    print(format_table(["Query type", "Measured", "Paper"], rows,
                       title="Table I — SMTP-triggered DNS query types"))
    print()

    # ---- Figure 2 --------------------------------------------------------
    for population, table in data.operator_tables.items():
        rows = [(label, f"{share:.2f}%") for label, share in table[:5]]
        print(format_table(["Network Operator", "Share"], rows,
                           title=f"Figure 2 (top 5) — {population}"))
        print()

    # ---- Figures 3 & 4 ----------------------------------------------------
    print(format_cdf_series(
        data.egress_series(), xs=[1, 2, 5, 11, 20, 40],
        title="Figure 3 — egress IPs per platform (CDF; paper: open 85% "
              "<=5, isp 50% >11, email 50% >20)",
        x_label="egress IPs"))
    print()
    print(format_cdf_series(
        data.cache_series(), xs=[1, 2, 3, 4, 8, 12],
        title="Figure 4 — caches per platform (CDF; paper: open 70% 1-2, "
              "isp ~60% 1-3, email 65% 1-4)",
        x_label="caches"))
    print()

    # ---- Figures 5, 7, 8 ---------------------------------------------------
    for population, figure in (("open-resolvers", "Figure 5"),
                               ("email-servers", "Figure 7"),
                               ("ad-network", "Figure 8")):
        print(format_bubbles(
            data.bubbles(population),
            title=f"{figure} — {population}: ingress IPs vs measured "
                  "caches"))
        print()

    # ---- Figure 6 ----------------------------------------------------------
    print(format_ratio_breakdown(
        data.ratio_breakdowns(),
        title="Figure 6 — IP/cache categories (paper: open ~70% 1/1; "
              "isp <10%, email <5% 1/1; multi/multi isp ~65%, email >80%)"))


if __name__ == "__main__":
    main()
