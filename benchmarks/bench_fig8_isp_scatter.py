"""Figure 8 — ingress IPs vs. caches bubbles, ISP (ad-network) population.

Paper anchors: 'ISP networks appear to use least caches and have the
smallest number of IP addresses' among the multi-cache populations, while
still being far less single/single than open resolvers.

Caches are measured through browser clients recruited via the ad network.
"""

from conftest import BENCH_CAPS, bench_census, run_once

from repro.study import format_bubbles, fraction_at_most, generate_population

N_PLATFORMS = 50


def test_fig8_isp_scatter(benchmark):
    specs = generate_population("ad-network", N_PLATFORMS, seed=801,
                                **BENCH_CAPS["ad-network"])

    def workload():
        aggregates = bench_census(specs, seed=801).aggregates
        assert set(aggregates.accuracy.cache_by_technique) == {"browser"}
        return aggregates

    aggregates = run_once(benchmark, workload)
    counts = aggregates.bubbles.counts()
    platforms = aggregates.rows
    print()
    print(format_bubbles(counts,
                         title="Figure 8 — ISPs (via ad-network): ingress "
                               "IPs vs. measured caches"))

    caches = aggregates.cache_cdf.values()
    ips = [spec.n_ingress for spec in specs]
    # ISPs use few caches: most platforms at 1-3 (paper: ~60%).
    assert fraction_at_most(caches, 3) > 0.45
    # And small ingress pools (no open-resolver-style giants).
    assert max(ips) <= 20
    # But they are not the open-resolver monoculture: (1,1) is a minority.
    single_single = counts.get((1, 1), 0)
    assert single_single < 0.2 * platforms
