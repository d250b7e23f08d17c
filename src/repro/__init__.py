"""repro — reproduction of *Counting in the Dark: DNS Caches Discovery and
Enumeration in the Internet* (Klein, Shulman, Waidner; DSN 2017).

The package builds, inside a deterministic simulator, every system the
paper's measurement study depends on — the DNS protocol, multi-cache
resolution platforms, authoritative hierarchies, browsers and mail servers
— and on top of them the paper's contribution: the Caches Discovery and
Enumeration (CDE) toolkit.

Quick start::

    from repro.study import build_world

    world = build_world(seed=1)
    platform = world.add_platform(n_ingress=2, n_caches=4, n_egress=3)
    report = world.study(platform)
    print(report.cache_count)   # -> 4

Subpackages:

* :mod:`repro.dns` — names, records, messages, zones, wire format.
* :mod:`repro.net` — virtual time, addresses, latency/loss, routing.
* :mod:`repro.cache` — TTL-honouring caches, eviction, software profiles.
* :mod:`repro.server` — authoritative servers, query logs, root hierarchy.
* :mod:`repro.resolver` — load balancing, iterative resolution, stubs.
* :mod:`repro.client` — browsers, ad-network machinery, SMTP servers.
* :mod:`repro.core` — the CDE: enumeration, mapping, bypasses, timing,
  carpet bombing, analysis, TTL checking, resilience, fingerprinting.
* :mod:`repro.study` — populations, simulated Internet, figure/table
  regeneration.

This package, :mod:`repro.core` and :mod:`repro.study` import a
submodule only when one of its names is first read (:mod:`repro._lazy`),
so a process loads only the code it runs.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

__version__ = "1.0.0"

if TYPE_CHECKING:
    from . import cache, client, core, dns, net, resolver, server

if not TYPE_CHECKING:
    __all__, __getattr__, __dir__ = lazy_exports(globals())
    __all__.append("__version__")
