"""Figure 4 — CDF of the number of caches per platform.

Paper anchors: open resolvers use the fewest caches — 70% use 1-2; about
60% of ISP platforms use 1-3; 65% of enterprise (email) networks use 1-4.

Cache counts are *measured*: direct enumeration for open resolvers, the
CNAME-chain bypass through SMTP servers and browsers for the other two.
"""

from conftest import BENCH_CAPS, BENCH_POPULATION_SIZES, bench_census, run_once

from repro.net.perf import PerfCounters
from repro.study import (
    format_cdf_series,
    format_perf,
    fraction_at_most,
    generate_population,
)


def test_fig4_cache_cdf(benchmark):
    def workload():
        series = {}
        perf = PerfCounters()
        for population, count in BENCH_POPULATION_SIZES.items():
            specs = generate_population(population, count, seed=401,
                                        **BENCH_CAPS[population])
            census = bench_census(specs, seed=401)
            series[population] = census.aggregates.cache_cdf.values()
            perf.merge(census.perf)
        return series, perf

    series, perf = run_once(benchmark, workload)
    print()
    print(format_cdf_series(series, xs=[1, 2, 3, 4, 6, 8, 12],
                            title="Figure 4 — caches per platform (CDF, "
                                  "measured)",
                            x_label="caches"))
    print(format_perf(perf))
    open_12 = fraction_at_most(series["open-resolvers"], 2)
    isp_13 = fraction_at_most(series["ad-network"], 3)
    email_14 = fraction_at_most(series["email-servers"], 4)
    print(f"measured: open 1-2: {open_12:.0%} (paper 70%); "
          f"isp 1-3: {isp_13:.0%} (paper ~60%); "
          f"email 1-4: {email_14:.0%} (paper 65%)")

    assert open_12 > 0.6
    assert 0.45 < isp_13 < 0.85
    assert 0.5 < email_14 < 0.85
    # Open resolvers are the lightest-cached population.
    assert open_12 > fraction_at_most(series["ad-network"], 2)
    assert open_12 > fraction_at_most(series["email-servers"], 2)
