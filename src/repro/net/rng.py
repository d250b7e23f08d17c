"""Seeded randomness.

All stochastic behaviour in the simulator flows from one root seed through
named streams, so that (a) every experiment is reproducible given its seed
and (b) adding a new random consumer does not perturb the draws of existing
ones (each stream is independently seeded from the root seed and its name).
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional


def derive_seed(root_seed: int, stream: str) -> int:
    """Stable 64-bit seed for a named stream under ``root_seed``.

    This is the one seed-derivation scheme of the whole toolkit: RNG
    streams, forked factories and the parallel measurement engine's
    per-shard world seeds (``derive_seed(base_seed, "shard/<index>")``)
    all flow through it, so a documented seed reproduces everything.
    """
    digest = hashlib.sha256(f"{root_seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: Backwards-compatible alias (pre-parallel-engine internal name).
_derive_seed = derive_seed


class RngFactory:
    """Hands out independent, named :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def release(self, names: list[str]) -> None:
        """Drop the named streams; a later ``stream(name)`` starts afresh.

        Only for streams whose consumer is gone for good (a retired
        platform's), so no name is ever drawn again after its release.
        """
        for name in names:
            self._streams.pop(name, None)

    def fork(self, name: str) -> "RngFactory":
        """A child factory whose root seed derives from this one."""
        return RngFactory(derive_seed(self.root_seed, f"fork:{name}"))


def make_rng(seed: Optional[int], stream: str = "default") -> random.Random:
    """One-off stream constructor for components used standalone."""
    return RngFactory(seed if seed is not None else 0).stream(stream)


def fallback_rng(component: str) -> random.Random:
    """Deterministic default stream for a component whose caller injected
    no rng (standalone or test construction).

    Seeded via :func:`derive_seed` under root seed 0, so (a) the default
    is still fully deterministic and (b) two components falling back at
    the same time get *independent* streams instead of the identical
    ``random.Random(0)`` sequence — default-constructed siblings must not
    be correlated.  Simulation paths always inject streams from the
    world's :class:`RngFactory`; this is never reached from a seeded run.
    """
    return random.Random(derive_seed(0, f"fallback/{component}"))
