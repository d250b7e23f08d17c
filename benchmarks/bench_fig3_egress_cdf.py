"""Figure 3 — CDF of the number of egress IP addresses per platform.

Paper anchors: enterprises (email) — 50% of platforms use more than 20
egress IPs; ISPs (ad-network) — 50% use more than 11; open resolvers —
85% use 5 or fewer.

The egress counts here are *measured* by the CDE egress census (distinct
source addresses of probe-driven queries at our nameservers), not copied
from the generator configs.
"""

from conftest import BENCH_CAPS, BENCH_POPULATION_SIZES, bench_census, run_once

from repro.net.perf import PerfCounters
from repro.study import (
    format_cdf_series,
    format_perf,
    fraction_above,
    fraction_at_most,
    generate_population,
)


def test_fig3_egress_cdf(benchmark):
    def workload():
        series = {}
        perf = PerfCounters()
        for population, count in BENCH_POPULATION_SIZES.items():
            specs = generate_population(population, count, seed=301,
                                        **BENCH_CAPS[population])
            census = bench_census(specs, seed=301)
            series[population] = census.aggregates.egress_cdf.values()
            perf.merge(census.perf)
        return series, perf

    series, perf = run_once(benchmark, workload)
    print()
    print(format_cdf_series(series, xs=[1, 2, 5, 11, 20, 40, 60],
                            title="Figure 3 — egress IPs per platform (CDF, "
                                  "measured by the CDE census)",
                            x_label="egress IPs"))
    print(format_perf(perf))
    print("paper anchors: open 85% <=5; isp 50% >11; email 50% >20")

    open_small = fraction_at_most(series["open-resolvers"], 5)
    isp_big = fraction_above(series["ad-network"], 11)
    email_big = fraction_above(series["email-servers"], 20)
    print(f"measured: open <=5: {open_small:.0%}; isp >11: {isp_big:.0%}; "
          f"email >20: {email_big:.0%}")

    assert open_small > 0.75                       # paper: 85%
    assert 0.3 < isp_big < 0.7                     # paper: 50%
    assert 0.3 < email_big < 0.7                   # paper: 50%
    # Ordering: enterprises heaviest, open resolvers lightest.
    assert fraction_at_most(series["open-resolvers"], 5) > \
        fraction_at_most(series["ad-network"], 5) > \
        fraction_at_most(series["email-servers"], 5)
