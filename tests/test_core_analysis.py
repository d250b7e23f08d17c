"""Tests for the §V-B coupon-collector analysis and estimators."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    coupon_tail_bound,
    coverage_fraction,
    estimate_from_occupancy,
    estimate_from_two_phase,
    exact_coverage_fraction,
    expected_queries_asymptotic,
    expected_queries_coupon,
    expected_uncovered,
    harmonic_number,
    init_validate_success,
    queries_for_confidence,
    recommended_seed_count,
)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(2) == pytest.approx(1.5)
        assert harmonic_number(4) == pytest.approx(25 / 12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_number(-1)

    def test_log_approximation(self):
        gamma = 0.5772156649
        assert harmonic_number(10_000) == \
            pytest.approx(math.log(10_000) + gamma, abs=1e-4)


class TestTheorem51:
    """E[X] = n·H_n (paper Theorem 5.1) — closed form and empirically."""

    def test_closed_form(self):
        assert expected_queries_coupon(1) == 1.0
        assert expected_queries_coupon(2) == pytest.approx(3.0)
        assert expected_queries_coupon(3) == pytest.approx(5.5)

    def test_asymptotic_close_to_exact(self):
        for n in (10, 50, 200):
            exact = expected_queries_coupon(n)
            approx = expected_queries_asymptotic(n)
            assert abs(exact - approx) / exact < 0.01

    def test_empirical_coupon_collector(self):
        """Simulate uniform cache selection; mean queries ≈ n·H_n."""
        rng = random.Random(42)
        n = 8
        trials = 400
        total = 0
        for _ in range(trials):
            seen = set()
            queries = 0
            while len(seen) < n:
                seen.add(rng.randrange(n))
                queries += 1
            total += queries
        mean = total / trials
        assert mean == pytest.approx(expected_queries_coupon(n), rel=0.08)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            expected_queries_coupon(0)


class TestTailBounds:
    def test_single_cache_tail(self):
        assert coupon_tail_bound(1, 1) == 0.0
        assert coupon_tail_bound(1, 0) == 1.0

    def test_bound_decreases_in_t(self):
        bounds = [coupon_tail_bound(8, t) for t in (8, 16, 32, 64)]
        assert bounds == sorted(bounds, reverse=True)

    def test_bound_capped_at_one(self):
        assert coupon_tail_bound(100, 1) == 1.0

    def test_queries_for_confidence_satisfies_bound(self):
        for n in (1, 2, 5, 20, 64):
            q = queries_for_confidence(n, 0.99)
            assert coupon_tail_bound(n, q) <= 0.01
            if q > 1:
                assert coupon_tail_bound(n, q - 1) > 0.01  # minimal

    def test_single_cache_needs_one_query(self):
        assert queries_for_confidence(1, 0.999) == 1

    def test_budget_grows_like_nlogn(self):
        q16 = queries_for_confidence(16, 0.99)
        q64 = queries_for_confidence(64, 0.99)
        assert 3 < q64 / q16 < 6  # ~ (64 ln 64)/(16 ln 16)

    def test_confidence_bounds_checked(self):
        with pytest.raises(ValueError):
            queries_for_confidence(4, 1.0)
        with pytest.raises(ValueError):
            queries_for_confidence(4, 0.0)

    @pytest.mark.parametrize("confidence", [0.9, 0.99, 0.999])
    def test_memoized_answers_equal_the_uncached_function(self, confidence):
        uncached = queries_for_confidence.__wrapped__
        for n in range(1, 257):
            expected = uncached(n, confidence)
            assert queries_for_confidence(n, confidence) == expected
            # A second ask is served from the memo, and still agrees.
            assert queries_for_confidence(n, confidence) == expected

    @pytest.mark.parametrize("n, confidence", [
        (4, 1.0), (4, 0.0), (4, -0.5), (0, 0.99), (-3, 0.9)])
    def test_invalid_arguments_raise_on_every_call(self, n, confidence):
        for _ in range(3):
            with pytest.raises(ValueError):
                queries_for_confidence(n, confidence)


class TestCoverage:
    def test_paper_formula(self):
        """§V-B: uncovered fraction ≈ exp(−N/n)."""
        assert coverage_fraction(0, 5) == 0.0
        assert coverage_fraction(10, 5) == pytest.approx(1 - math.exp(-2))

    def test_n_equals_2n_misses_little(self):
        """'only a small fraction of caches may be missed with N = 2·n'."""
        assert expected_uncovered(20, 10) < 10 * 0.14

    def test_exact_vs_exponential_approximation(self):
        # The exponential is the n→∞ limit of the exact expression; the gap
        # shrinks as n grows.
        gaps = [abs(exact_coverage_fraction(2 * n, n) -
                    coverage_fraction(2 * n, n))
                for n in (5, 20, 100)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.01

    def test_init_validate_success_formula(self):
        """N·(1−e^{−N/n})², asymptotically reaching N."""
        n = 4
        values = [init_validate_success(big_n, n) / big_n
                  for big_n in (4, 8, 32, 128)]
        assert values == sorted(values)          # grows with N/n
        assert values[-1] > 0.99                  # asymptotically 1·N

    def test_recommended_seed_count(self):
        assert recommended_seed_count(10) == 20
        assert recommended_seed_count(3, multiplier=1.5) == 5
        with pytest.raises(ValueError):
            recommended_seed_count(0)


class TestEstimators:
    def test_two_phase_exact_fraction(self):
        # n caches -> validate arrivals ≈ N(n-1)/n; inverting recovers n.
        for n in (1, 2, 4, 8):
            seeds = 1000
            arrivals = round(seeds * (n - 1) / n)
            estimate = estimate_from_two_phase(seeds, arrivals)
            assert estimate == pytest.approx(n, rel=0.01)

    def test_two_phase_all_arrivals_caps_at_seeds(self):
        assert estimate_from_two_phase(10, 10) == 10.0

    def test_two_phase_bad_input(self):
        with pytest.raises(ValueError):
            estimate_from_two_phase(0, 0)
        with pytest.raises(ValueError):
            estimate_from_two_phase(5, 6)

    def test_occupancy_full_coverage(self):
        # Plenty of queries, ω distinct: estimate ≈ ω.
        assert estimate_from_occupancy(1000, 4) == pytest.approx(4, abs=0.05)

    def test_occupancy_zero(self):
        assert estimate_from_occupancy(10, 0) == 0.0

    def test_occupancy_saturated(self):
        assert estimate_from_occupancy(5, 5) == 5.0

    def test_occupancy_monotone_in_arrivals(self):
        estimates = [estimate_from_occupancy(50, omega)
                     for omega in (10, 20, 30, 40)]
        assert estimates == sorted(estimates)

    def test_occupancy_bad_input(self):
        with pytest.raises(ValueError):
            estimate_from_occupancy(0, 0)
        with pytest.raises(ValueError):
            estimate_from_occupancy(5, 6)

    @settings(max_examples=50)
    @given(n=st.integers(1, 30), factor=st.integers(5, 20))
    def test_occupancy_inversion_property(self, n, factor):
        """Feeding the expected distinct count back recovers n closely."""
        queries = factor * n
        expected_distinct = n * (1 - (1 - 1 / n) ** queries)
        omega = round(expected_distinct)
        if omega >= queries or omega == 0:
            return
        estimate = estimate_from_occupancy(queries, omega)
        assert estimate == pytest.approx(n, rel=0.35, abs=1.0)
