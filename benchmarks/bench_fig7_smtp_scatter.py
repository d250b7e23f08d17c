"""Figure 7 — ingress IPs vs. caches bubbles, enterprise (SMTP) population.

Paper anchors: 'the results for enterprise networks ... are more
scattered, with a more even distribution and significantly less IP
addresses' than the open-resolver population — no single dominant circle,
no giant-IP tail.

Caches are measured through each enterprise's own mail server (bounce
handling + CNAME-chain bypass).
"""

from conftest import BENCH_CAPS, bench_census, run_once

from repro.study import format_bubbles, generate_population

N_PLATFORMS = 50


def test_fig7_smtp_scatter(benchmark):
    def workload():
        specs = generate_population("email-servers", N_PLATFORMS, seed=701,
                                    **BENCH_CAPS["email-servers"])
        aggregates = bench_census(specs, seed=701).aggregates
        assert set(aggregates.accuracy.cache_by_technique) == {"smtp"}
        return aggregates

    aggregates = run_once(benchmark, workload)
    counts = aggregates.bubbles.counts()
    platforms = aggregates.rows
    print()
    print(format_bubbles(counts,
                         title="Figure 7 — enterprises (via SMTP): ingress "
                               "IPs vs. measured caches"))

    # More scattered than Figure 5: the biggest circle holds a minority.
    assert max(counts.values()) < 0.45 * platforms
    # Significantly fewer ingress IPs than open resolvers: no giant tail.
    assert all(x <= 20 for (x, _) in counts)
    # Multi-cache cells dominate.
    multi_cache = sum(count for (_, y), count in counts.items() if y > 1)
    assert multi_cache > 0.6 * platforms
