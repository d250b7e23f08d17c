"""Cache-selection strategies (the load balancer's brain).

Paper §IV-A: "Resolution platforms use different cache selection methods for
probing caches.  Within our study we identified two cache selection methods:
traffic dependent (which attempt to evenly distribute the queries' volume to
caches) and unpredictable. [...] We also identified more complex cache
selection strategies, e.g., those that [...] are also a function of a
requested domain in the query or of a source IP in a DNS request."

Each strategy maps one arriving query to the index of the cache that will be
probed.  ``is_unpredictable`` tags the category used in the paper's analysis
(the coupon-collector bound applies to unpredictable selection; round robin
needs only ``q = n`` probes).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional, Protocol

from ..dns.name import DnsName
from ..dns.rrtype import RRType
from ..net.rng import fallback_rng


@dataclass
class QueryContext:
    """What the load balancer can see of one arriving query."""

    qname: DnsName
    qtype: RRType
    src_ip: str
    sequence: int  # arrival index at the platform


class CacheSelector(Protocol):
    name: str
    is_unpredictable: bool

    def select(self, context: QueryContext, n_caches: int) -> int:
        """Index in ``range(n_caches)`` of the cache to probe."""


class RoundRobinSelector:
    """Traffic-dependent: the next cache is probed on each arrival."""

    name = "round-robin"
    is_unpredictable = False

    def __init__(self) -> None:
        self._next = 0

    def select(self, context: QueryContext, n_caches: int) -> int:
        index = self._next % n_caches
        self._next += 1
        return index


class UniformRandomSelector:
    """Unpredictable: a uniformly random cache is probed."""

    name = "uniform-random"
    is_unpredictable = True

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng or fallback_rng("resolver.UniformRandomSelector")

    def select(self, context: QueryContext, n_caches: int) -> int:
        return self._rng.randrange(n_caches)


def _stable_hash(*parts: str) -> int:
    digest = hashlib.sha256("/".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class QnameHashSelector:
    """Deterministic on the requested domain (paper's 'function of a
    requested domain in the query')."""

    name = "qname-hash"
    is_unpredictable = False

    def __init__(self, salt: str = ""):
        self._salt = salt

    def select(self, context: QueryContext, n_caches: int) -> int:
        return _stable_hash(self._salt, str(context.qname).lower()) % n_caches


class SourceIpHashSelector:
    """Deterministic on the client address (paper's 'function of a source IP
    in a DNS request')."""

    name = "source-ip-hash"
    is_unpredictable = False

    def __init__(self, salt: str = ""):
        self._salt = salt

    def select(self, context: QueryContext, n_caches: int) -> int:
        return _stable_hash(self._salt, context.src_ip) % n_caches


@dataclass
class LeastLoadedSelector:
    """Traffic-dependent: send to the cache that has served the fewest
    queries so far (ties broken by index)."""

    name: str = field(default="least-loaded", init=False)
    is_unpredictable: bool = field(default=False, init=False)
    _load: dict[int, int] = field(default_factory=dict)

    def select(self, context: QueryContext, n_caches: int) -> int:
        index = min(range(n_caches), key=lambda i: (self._load.get(i, 0), i))
        self._load[index] = self._load.get(index, 0) + 1
        return index


class StickyRandomSelector:
    """Unpredictable with affinity: random choice, but a fraction of queries
    repeats the previous cache.  Models load balancers with flow affinity."""

    name = "sticky-random"
    is_unpredictable = True

    def __init__(self, stickiness: float = 0.3, rng: Optional[random.Random] = None):
        if not 0.0 <= stickiness < 1.0:
            raise ValueError("stickiness must be in [0, 1)")
        self._stickiness = stickiness
        self._rng = rng or fallback_rng("resolver.StickyRandomSelector")
        self._last: Optional[int] = None

    def select(self, context: QueryContext, n_caches: int) -> int:
        if self._last is not None and self._last < n_caches and \
                self._rng.random() < self._stickiness:
            return self._last
        self._last = self._rng.randrange(n_caches)
        return self._last


SELECTOR_FACTORIES = {
    "round-robin": lambda rng: RoundRobinSelector(),
    "uniform-random": lambda rng: UniformRandomSelector(rng),
    "qname-hash": lambda rng: QnameHashSelector(),
    "source-ip-hash": lambda rng: SourceIpHashSelector(),
    "least-loaded": lambda rng: LeastLoadedSelector(),
    "sticky-random": lambda rng: StickyRandomSelector(rng=rng),
}


def make_selector(name: str, rng: Optional[random.Random] = None) -> CacheSelector:
    try:
        factory = SELECTOR_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown cache selector {name!r}") from None
    return factory(rng or fallback_rng("resolver.make_selector"))


class EgressSelector(Protocol):
    """Chooses the egress IP for one upstream query."""

    def select(self, upstream_ip: str, n_egress: int) -> int: ...


class RandomEgressSelector:
    """Per-upstream-query random egress address — reproduces the paper's
    observation that 'multiple different egress IP addresses participated in
    a resolution of a given name'."""

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng or fallback_rng("resolver.RandomEgressSelector")

    def select(self, upstream_ip: str, n_egress: int) -> int:
        return self._rng.randrange(n_egress)


class RoundRobinEgressSelector:
    def __init__(self) -> None:
        self._next = 0

    def select(self, upstream_ip: str, n_egress: int) -> int:
        index = self._next % n_egress
        self._next += 1
        return index


class PinnedEgressSelector:
    """Always the same egress IP (the single-address platform of Fig. 1's
    'very simple version')."""

    def select(self, upstream_ip: str, n_egress: int) -> int:
        return 0


class CacheAffineEgressSelector:
    """Each cache owns a disjoint slice of the egress pool.

    Real deployments often colocate a cache with its worker resolvers, so
    the egress addresses a cache uses identify it from the outside.  The
    platform calls :meth:`select_for_cache` when the selector exposes it;
    egress index ``j`` belongs to cache ``j % n_caches``.
    """

    per_cache = True

    def __init__(self, n_caches: int, rng: Optional[random.Random] = None):
        if n_caches < 1:
            raise ValueError("need at least one cache")
        self.n_caches = n_caches
        self._rng = rng or fallback_rng("resolver.CacheAffineEgressSelector")

    def owned_indices(self, cache_index: int, n_egress: int) -> list[int]:
        owned = [j for j in range(n_egress)
                 if j % self.n_caches == cache_index % self.n_caches]
        # Small egress pools: fall back to sharing rather than starving.
        return owned or list(range(n_egress))

    def select_for_cache(self, cache_index: int, upstream_ip: str,
                         n_egress: int) -> int:
        return self._rng.choice(self.owned_indices(cache_index, n_egress))

    def select(self, upstream_ip: str, n_egress: int) -> int:
        # Cache-oblivious fallback (used if a caller lacks cache identity).
        return self._rng.randrange(n_egress)
