"""Multi-pool resolution platforms.

The paper's ingress→cache mapping technique (§IV-B1b) exists because large
operators do *not* put every ingress address in front of one cache pool:
anycast sites, regional clusters and tiered deployments partition the
ingress addresses into groups, each group fronting its own set of caches.
The honey-record clustering discovers that partition from the outside.

:class:`MultiPoolPlatform` models exactly this: a set of named pools, each
an independent :class:`~repro.resolver.platform.ResolutionPlatform` (its
own caches, selector and egress addresses), presented to the world as one
service.  Ground truth — which ingress IP belongs to which pool — is
exposed for experiment validation only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..net.network import LinkProfile, Network
from ..net.rng import fallback_rng
from .platform import PlatformConfig, ResolutionPlatform
from .selection import CacheSelector


@dataclass
class PoolSpec:
    """One cache pool and the ingress addresses it serves."""

    name: str
    ingress_ips: list[str]
    egress_ips: list[str]
    n_caches: int
    cache_selector: Optional[CacheSelector] = None


@dataclass
class MultiPoolConfig:
    name: str
    pools: list[PoolSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.pools:
            raise ValueError("multi-pool platform needs at least one pool")
        seen: set[str] = set()
        for pool in self.pools:
            overlap = seen & set(pool.ingress_ips)
            if overlap:
                raise ValueError(f"ingress IPs assigned twice: {overlap}")
            seen.update(pool.ingress_ips)


class MultiPoolPlatform:
    """Several cache pools behind one logical service."""

    def __init__(self, config: MultiPoolConfig, network: Network,
                 root_hint_ips: list[str],
                 rng: Optional[random.Random] = None):
        self.config = config
        self.network = network
        self.rng = rng or fallback_rng("resolver.MultiPoolPlatform")
        self.pools: dict[str, ResolutionPlatform] = {}
        for pool in config.pools:
            pool_config = PlatformConfig(
                name=f"{config.name}/{pool.name}",
                ingress_ips=pool.ingress_ips,
                egress_ips=pool.egress_ips,
                n_caches=pool.n_caches,
                cache_selector=pool.cache_selector,
            )
            self.pools[pool.name] = ResolutionPlatform(
                pool_config, network, root_hint_ips,
                rng=random.Random(self.rng.randrange(1 << 30)),
            )

    def attach(self, profile: Optional[LinkProfile] = None) -> None:
        """Register every pool; each ingress IP routes to its own pool."""
        for platform in self.pools.values():
            platform.attach(profile)

    # -- ground truth (experiments only) ----------------------------------

    @property
    def ingress_ips(self) -> list[str]:
        return [ip for pool in self.config.pools for ip in pool.ingress_ips]

    @property
    def egress_ips(self) -> list[str]:
        return [ip for pool in self.config.pools for ip in pool.egress_ips]

    @property
    def n_pools(self) -> int:
        return len(self.pools)

    @property
    def total_caches(self) -> int:
        return sum(platform.n_caches for platform in self.pools.values())

    def pool_of(self, ingress_ip: str) -> Optional[str]:
        for pool in self.config.pools:
            if ingress_ip in pool.ingress_ips:
                return pool.name
        return None

    def true_partition(self) -> dict[str, frozenset[str]]:
        """Pool name → its ingress IPs (what clustering should recover)."""
        return {pool.name: frozenset(pool.ingress_ips)
                for pool in self.config.pools}
