"""Coupon-collector analysis of cache enumeration (paper §V-B).

The number of queries needed to probe every cache behind an IP address,
under *unpredictable* (uniform random) cache selection, is the classical
coupon-collector quantity: Theorem 5.1 gives ``E[X] = n·H_n = Θ(n log n)``.
This module implements the closed forms the paper states — expected cost,
coverage of an ``N``-seed init phase (``1 − e^{−N/n}``), the init/validate
success-rate ``N·(1 − e^{−N/n})²`` — plus the tail bounds and query-budget
planners the measurement code uses to pick ``q``, and the unbiased
estimators that turn raw arrival counts into cache-count estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


def harmonic_number(n: int) -> float:
    """H_n = sum_{i=1..n} 1/i.  Exact summation for the n we ever meet."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(1.0 / i for i in range(1, n + 1))


def expected_queries_coupon(n: int) -> float:
    """Theorem 5.1: E[X] = n · H_n queries to probe all n caches."""
    if n <= 0:
        raise ValueError("need at least one cache")
    return n * harmonic_number(n)


def expected_queries_asymptotic(n: int) -> float:
    """The paper's asymptotic form: n log n + γ·n + 1/2 (§V-B proof)."""
    if n <= 0:
        raise ValueError("need at least one cache")
    gamma = 0.5772156649015329
    return n * math.log(n) + gamma * n + 0.5 if n > 1 else 1.0

def coupon_tail_bound(n: int, t: int) -> float:
    """Union bound on P[X > t]: n·(1 − 1/n)^t ≤ n·e^{−t/n}."""
    if n <= 0:
        raise ValueError("need at least one cache")
    if n == 1:
        return 0.0 if t >= 1 else 1.0
    return min(1.0, n * (1.0 - 1.0 / n) ** t)


@lru_cache(maxsize=1024)
def queries_for_confidence(n: int, confidence: float = 0.99) -> int:
    """Smallest t with the tail bound below 1 − confidence.

    This is the planner for the direct method's ``q``: how many identical
    queries guarantee (w.h.p.) that all ``n`` caches have been probed.
    A pure function of its arguments, asked for the same few ``(n,
    confidence)`` pairs once or twice per census row, so answers are
    memoized (a bounded cache; invalid arguments raise on every call).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n <= 0:
        raise ValueError("need at least one cache")
    if n == 1:
        return 1
    # Solve n·e^{−t/n} = 1 − confidence analytically, then nudge for the
    # exact geometric bound.
    t = int(math.ceil(n * math.log(n / (1.0 - confidence))))
    while coupon_tail_bound(n, t) > 1.0 - confidence:
        t += 1
    while t > 1 and coupon_tail_bound(n, t - 1) <= 1.0 - confidence:
        t -= 1
    return t


def coverage_fraction(big_n: int, n: int) -> float:
    """Expected fraction of n caches seeded by N independent probes.

    §V-B: "the expected part of the n caches that is not covered in N
    attempts is roughly exp(−N/n)".
    """
    if n <= 0:
        raise ValueError("need at least one cache")
    if big_n < 0:
        raise ValueError("N must be non-negative")
    return 1.0 - math.exp(-big_n / n)


def expected_uncovered(big_n: int, n: int) -> float:
    """Expected number of caches missed by N seeding probes."""
    return n * (1.0 - coverage_fraction(big_n, n))


def exact_coverage_fraction(big_n: int, n: int) -> float:
    """Exact expected covered fraction: 1 − (1 − 1/n)^N (the paper's
    exponential is this quantity's limit)."""
    if n <= 0:
        raise ValueError("need at least one cache")
    if n == 1:
        return 1.0 if big_n >= 1 else 0.0
    return 1.0 - (1.0 - 1.0 / n) ** big_n


def init_validate_success(big_n: int, n: int) -> float:
    """Expected number of validated seeds (paper: N·(1 − e^{−N/n})²).

    "We expect success rate of N·(1 − exp(−N/n))²; as N/n grows, this
    asymptotically reaches N."
    """
    covered = coverage_fraction(big_n, n)
    return big_n * covered * covered


def recommended_seed_count(n_upper_bound: int, multiplier: float = 2.0) -> int:
    """§V-B: "only a small fraction of caches may be missed with N = 2·n".

    ``n_upper_bound`` is the operator's prior on the maximum cache count.
    """
    if n_upper_bound <= 0:
        raise ValueError("need at least one cache")
    return max(1, int(math.ceil(multiplier * n_upper_bound)))


# ---------------------------------------------------------------------------
# estimators: from observed arrival counts to cache counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheCountEstimate:
    """A cache-count estimate with the raw observations behind it."""

    estimate: float
    lower_bound: int       # caches *proven* to exist (distinct misses seen)
    queries_sent: int
    arrivals: int

    @property
    def rounded(self) -> int:
        return max(self.lower_bound, int(round(self.estimate)))


def estimate_from_two_phase(seeds: int, validate_arrivals: int) -> float:
    """n̂ from the init/validate protocol.

    Each of the N seeds is planted by the init phase (one cache holds it)
    and re-requested in the validate phase.  A validate request reaches the
    nameserver iff it probed a cache *other* than the seeded one, which
    under uniform selection happens with probability (n−1)/n.  With V
    observed validate arrivals, (N − V)/N estimates 1/n, giving::

        n̂ = N / (N − V)

    The estimator diverges as V → N (many caches); callers cap it with the
    seed count, since N seeds cannot distinguish more than N caches.
    """
    if seeds <= 0:
        raise ValueError("need at least one seed")
    if not 0 <= validate_arrivals <= seeds:
        raise ValueError("validate arrivals must be within [0, seeds]")
    hits = seeds - validate_arrivals
    if hits == 0:
        return float(seeds)
    return min(float(seeds), seeds / hits)


def estimate_from_occupancy(queries: int, distinct_arrivals: int) -> float:
    """n̂ from the direct method when q may under-cover the caches.

    q uniform probes over n caches touch ``n·(1 − (1 − 1/n)^q)`` distinct
    caches in expectation; invert numerically for n given the observed
    distinct count ω.  When ω == q every probe found a new cache and any
    n ≥ q is possible — return q as the (tight) lower bound.
    """
    if queries <= 0:
        raise ValueError("need at least one query")
    omega = distinct_arrivals
    if not 0 <= omega <= queries:
        raise ValueError("arrivals must be within [0, queries]")
    if omega == 0:
        return 0.0
    if omega == queries:
        return float(omega)

    def expected_distinct(n: float) -> float:
        return n * (1.0 - (1.0 - 1.0 / n) ** queries)

    low, high = float(omega), float(omega)
    while expected_distinct(high) < omega and high < 1e9:
        high *= 2.0
    for _ in range(80):
        mid = (low + high) / 2.0
        if expected_distinct(mid) < omega:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


# ---------------------------------------------------------------------------
# streaming budget accounting
# ---------------------------------------------------------------------------


@dataclass
class CouponBudgetLedger:
    """Coupon-collector query budgets, charged per streamed chunk.

    A streaming census never holds all rows, so the budget bookkeeping must
    fold incrementally: each platform *charges* its planned budget (the
    coupon-collector ``queries_for_confidence`` allowance) and *spends* the
    queries actually used; ``close_chunk`` snapshots a chunk boundary.  All
    counters are integers, so ledgers merge associatively — parent and
    worker-shard ledgers combine into the same totals the in-memory path
    would have produced.
    """

    platforms: int = 0
    chunks: int = 0
    budget_queries: int = 0
    spent_queries: int = 0

    def charge(self, n_caches: int, confidence: float = 0.99) -> int:
        """Charge one platform's planned coupon-collector allowance."""
        budget = queries_for_confidence(max(n_caches, 2), confidence)
        self.platforms += 1
        self.budget_queries += budget
        return budget

    def spend(self, queries_used: int) -> None:
        """Record queries actually spent (≤ or > budget are both legal)."""
        self.spent_queries += queries_used

    def close_chunk(self) -> None:
        """Mark a chunk boundary (one durable unit of the streamed census)."""
        self.chunks += 1

    def merge(self, other: "CouponBudgetLedger") -> None:
        self.platforms += other.platforms
        self.chunks += other.chunks
        self.budget_queries += other.budget_queries
        self.spent_queries += other.spent_queries

    @property
    def utilisation(self) -> float:
        """Spent / budgeted — how tight the coupon planner ran."""
        return (self.spent_queries / self.budget_queries
                if self.budget_queries else 0.0)

    def to_dict(self) -> dict[str, object]:
        return {
            "platforms": self.platforms,
            "chunks": self.chunks,
            "budget_queries": self.budget_queries,
            "spent_queries": self.spent_queries,
            "utilisation": self.utilisation,
        }
