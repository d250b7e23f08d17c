"""Figure 5 — ingress IPs vs. caches bubbles, open-resolver population.

Paper anchors: the dominant circle is (1 IP, 1 cache); many networks sit
below 10 IPs; a few giants use more than 500 IPs with more than 30 caches
(the top-right circles).
"""

from conftest import bench_census, run_once

from repro.study import PlatformSpec, format_bubbles, generate_population

N_PLATFORMS = 90


def test_fig5_open_resolver_scatter(benchmark):
    def workload():
        specs = generate_population("open-resolvers", N_PLATFORMS, seed=501,
                                    max_ingress=700, max_caches=36,
                                    max_egress=40)
        # The giant public services (paper's top-right circles) are a ~1.5%
        # category; pin one so a finite sample always contains the tail.
        specs.append(PlatformSpec(
            population="open-resolvers", index=N_PLATFORMS + 1,
            operator="Google Inc.", country="default",
            n_ingress=600, n_caches=32, n_egress=40,
            selector_name="uniform-random"))
        return bench_census(specs, seed=501).aggregates

    aggregates = run_once(benchmark, workload)
    counts = aggregates.bubbles.counts()
    platforms = aggregates.rows
    print()
    print(format_bubbles(counts,
                         title="Figure 5 — open resolvers: ingress IPs vs. "
                               "measured caches"))

    # The (1, 1) circle dominates (paper: 'the largest circle').
    assert counts.get((1, 1), 0) == max(counts.values())
    assert counts[(1, 1)] >= 0.5 * platforms
    # The giant tail exists: >=500 IPs with >=20-cache pools measured.
    assert any(x >= 500 and y >= 20 for (x, y) in counts)
    # Most networks sit at 10 IPs or fewer.
    small = sum(count for (x, _), count in counts.items() if x <= 10)
    assert small >= 0.85 * platforms
