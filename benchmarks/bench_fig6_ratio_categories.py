"""Figure 6 — IP-to-cache ratio categories across the three populations.

Paper anchors: almost 70% of open-resolver networks use one IP and one
cache; fewer than 10% of ISP networks and fewer than 5% of enterprises do;
the majority of ISPs (~65%) and enterprises (>80%) use more than one
address *and* more than one cache.
"""

from conftest import BENCH_CAPS, BENCH_POPULATION_SIZES, bench_census, run_once

from repro.study import format_ratio_breakdown, generate_population


def test_fig6_ratio_categories(benchmark):
    def workload():
        breakdowns = {}
        for population, count in BENCH_POPULATION_SIZES.items():
            specs = generate_population(population, count, seed=601,
                                        **BENCH_CAPS[population])
            census = bench_census(specs, seed=601)
            breakdowns[population] = census.aggregates.ratios.breakdown()
        return breakdowns

    breakdowns = run_once(benchmark, workload)
    print()
    print(format_ratio_breakdown(
        breakdowns, title="Figure 6 — IP/cache ratio categories (measured)"))
    print("paper anchors: open 1IP/1cache ~70%; isp <10%, email <5%; "
          "multi/multi: isp ~65%, email >80%")

    open_ss = breakdowns["open-resolvers"].single_ip_single_cache
    isp_ss = breakdowns["ad-network"].single_ip_single_cache
    email_ss = breakdowns["email-servers"].single_ip_single_cache
    assert 0.55 < open_ss < 0.85        # paper: almost 70%
    assert isp_ss < 0.15                 # paper: <10%
    assert email_ss < 0.12               # paper: <5%

    isp_mm = breakdowns["ad-network"].multi_ip_multi_cache
    email_mm = breakdowns["email-servers"].multi_ip_multi_cache
    assert isp_mm > 0.5                  # paper: almost 65%
    assert email_mm > 0.6                # paper: more than 80%
    assert email_mm >= isp_mm - 0.1      # enterprises at least as multi
