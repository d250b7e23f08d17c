"""Validation — CDE measurement accuracy against ground truth.

Not a paper figure: this is the controlled-conditions validation the
simulated testbed makes possible.  Measures every platform of all three
populations with its dataset's access channel, then reports exactness,
mean absolute error and bias per selector class and per technique.  The
assertions are the regression alarm for the whole measurement pipeline.
"""

from conftest import bench_census, run_once

from repro.study import AccuracyReport, format_table, generate_population

SIZES = {"open-resolvers": 35, "email-servers": 25, "ad-network": 25}
CAPS = {
    "open-resolvers": dict(max_ingress=30, max_caches=10, max_egress=12),
    "email-servers": dict(max_ingress=8, max_caches=8, max_egress=30),
    "ad-network": dict(max_ingress=10, max_caches=8, max_egress=25),
}


def test_measurement_accuracy(benchmark):
    def workload():
        report = AccuracyReport()
        for population, size in SIZES.items():
            specs = generate_population(population, size, seed=991,
                                        **CAPS[population])
            report.merge(bench_census(specs, seed=991).aggregates.accuracy)
        return report

    report = run_once(benchmark, workload)
    print()
    print(format_table(
        ["quantity / group", "n", "exact", "MAE", "bias"],
        report.rows(),
        title="Validation — measured vs. true counts "
              f"({report.cache_overall.count} platforms)"))

    # Cache census: exact for the vast majority...
    assert report.cache_overall.exact_rate > 0.85
    # ...and essentially perfect where the selector exposes the pool.
    unpredictable = report.cache_by_selector_class["unpredictable"]
    assert unpredictable.exact_rate > 0.9
    traffic = report.cache_by_selector_class.get("traffic-dependent")
    if traffic is not None:
        assert traffic.exact_rate > 0.85
    # Keyed selectors undercount by design (documented limitation): the
    # bias must be negative, never positive.
    keyed = report.cache_by_selector_class.get("keyed")
    if keyed is not None and keyed.count:
        assert keyed.bias <= 0.0
    # The census never systematically overcounts.
    assert report.cache_overall.bias <= 0.05
    # Egress census: tight, with a slight undercount on the largest pools
    # (the probe budget is capped at 3x the pool prior; a full coupon
    # budget would close the gap at proportional cost).
    assert report.egress_overall.exact_rate > 0.6
    assert report.egress_overall.mean_absolute_error < 1.0
    assert report.egress_overall.bias <= 0.0
