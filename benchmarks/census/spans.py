"""Layer spans for the traced census run.

The traced run wraps public entry points of each layer (listed in
:data:`POINTS`) with span recorders, from outside the package, at run
time.  Every span knows its name, start, end and parent (the span below
it on the stack); on exit its *self* time — duration minus the time its
child spans cover — is added to its point, and its duration to its
parent's child total.  Nothing is stored per span, so a census with
millions of cache lookups traces in constant memory.

Self times sum exactly to the root span's duration: the root's own self
time is the work no span point covers (``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable, Iterator, Optional


def _capture_world(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.worlds.append(args[0])


def _count_lookups(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.client_lookups += len(result.lookups)


#: ``(layer, "module:attribute path", observer)`` per span point.  The
#: observer, when present, reads the call's arguments and result.
POINTS: tuple[tuple[str, str, Optional[Callable[..., None]]], ...] = (
    ("population", "repro.study.population:PopulationGenerator.draw", None),
    ("population", "repro.study.census:simulate_census_rows", None),
    ("internet", "repro.study.internet:SimulatedInternet.__init__",
     _capture_world),
    ("internet",
     "repro.study.internet:SimulatedInternet.add_platform_from_spec", None),
    ("engine", "repro.study.engine:ShardLane.step", None),
    ("core", "repro.core.prober:DirectProber.probe", None),
    ("core", "repro.core.prober:SmtpProber.trigger", None),
    ("core", "repro.core.bypass:CnameChainBypass.run", None),
    ("core",
     "repro.core.infrastructure:CdeInfrastructure.setup_cname_chain", None),
    ("client", "repro.client.smtp:SmtpServer.receive_message",
     _count_lookups),
    ("net", "repro.net.network:Network.query", None),
    ("resolver", "repro.resolver.platform:ResolutionPlatform.handle_message",
     None),
    ("cache", "repro.cache.cache:DnsCache.get", None),
    ("cache", "repro.cache.cache:DnsCache.put_rrset", None),
    ("dns", "repro.dns.zone:Zone.lookup", None),
    ("server",
     "repro.server.authoritative:AuthoritativeServer.handle_message", None),
    ("server",
     "repro.core.infrastructure:CdeInfrastructure.count_queries_for", None),
    ("server", "repro.server.querylog:QueryLog.entries", None),
    ("server", "repro.server.querylog:QueryLog.entries_for_any", None),
    ("server", "repro.server.querylog:QueryLog.count", None),
    ("server", "repro.server.querylog:QueryLog.count_under", None),
    ("census", "repro.study.census:CensusAggregates.add_row", None),
    ("export", "repro.study.export:CensusWriter.write_row", None),
    ("export", "repro.study.export:CensusWriter.close", None),
)

#: Span points whose self time is ``server.log_read_s`` (query-log reads).
LOG_READS = frozenset(
    target for _, target, _ in POINTS
    if target.startswith("repro.server.querylog:")
    or target.endswith(".count_queries_for"))

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in POINTS))

ROOT = "root"


def resolve(target: str) -> tuple[Any, str]:
    """The class or module that holds span point ``target``, and its name."""
    module_name, path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """A span stack that folds each finished span into per-point totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.client_lookups = 0
        self.worlds: list[Any] = []
        #: Open spans, innermost last: ``[name, start, child seconds]``.
        self._stack: list[list[Any]] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def root(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside the root span."""
        self.enter(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def wrap(self, name: str, fn: Callable[..., Any],
             observe: Optional[Callable[..., None]] = None
             ) -> Callable[..., Any]:
        """``fn`` recording one span per call (per ``next`` for generators)."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = fn(*args, **kwargs)
                while True:
                    self.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every span point: methods on their class, functions in
        every loaded ``repro`` module that imported them by name."""
        for _, target, observe in POINTS:
            owner, attr = resolve(target)
            original = getattr(owner, attr)
            traced = self.wrap(target, original, observe)
            if inspect.isclass(owner):
                self._patch(owner, attr, traced)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original):
                    self._patch(module, attr, traced)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, plus the root's as ``unattributed``."""
        totals = {layer: 0.0 for layer in LAYERS}
        for layer, target, _ in POINTS:
            totals[layer] += self.self_s[target]
        totals["unattributed"] = self.self_s[ROOT]
        return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, result: Any,
                  export: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric of one traced census.

    ``result`` is the :class:`~repro.study.census.CensusResult`;
    ``export`` holds the written ``bytes`` and ``chunks``.  Counters come
    from the spans and from counters the package already keeps.
    """
    self_s = tracer.layer_self()
    calls = tracer.calls
    perf = result.perf
    fused = perf.fused_probes if perf else 0
    fallback = perf.fallback_probes if perf else 0
    stats = perf.stats if perf else None
    sent = stats.messages_sent if stats else 0
    resilience = result.aggregates.resilience.summary()

    hits = lookups = log_entries = 0
    for world in tracer.worlds:
        for hosted in world.platforms:
            for cache in hosted.platform.caches:
                hits += cache.stats.hits
                lookups += cache.stats.lookups
        log_entries += sum(log.total_recorded
                           for log in world.cde.all_query_logs())

    def count(*names: str) -> int:
        return sum(calls[name] for name in names)

    return {
        "population.self_s": self_s["population"],
        "population.specs": count(
            "repro.study.population:PopulationGenerator.draw"),
        "internet.build_s": self_s["internet"],
        "internet.platforms_built": count(
            "repro.study.internet:SimulatedInternet.add_platform_from_spec"),
        "engine.self_s": self_s["engine"],
        "engine.turns": count("repro.study.engine:ShardLane.step"),
        "engine.fused_probes": fused,
        "engine.fallback_probes": fallback,
        "engine.fused_share": _ratio(fused, fused + fallback),
        "core.self_s": self_s["core"],
        "core.probes": count("repro.core.prober:DirectProber.probe",
                             "repro.core.prober:SmtpProber.trigger"),
        "core.attempts": resilience.attempts,
        "core.retries": resilience.retries,
        "core.gave_up": resilience.gave_up,
        "client.self_s": self_s["client"],
        "client.lookups": tracer.client_lookups,
        "net.self_s": self_s["net"],
        "net.transactions": sent - (stats.retransmissions if stats else 0),
        "net.retransmissions": stats.retransmissions if stats else 0,
        "net.timeouts": stats.timeouts if stats else 0,
        "net.faults_injected": stats.faults_injected if stats else 0,
        "net.delivery_ratio": _ratio(
            stats.messages_delivered if stats else 0, sent),
        "resolver.self_s": self_s["resolver"],
        "resolver.queries": count(
            "repro.resolver.platform:ResolutionPlatform.handle_message"),
        "cache.self_s": self_s["cache"],
        "cache.lookups": lookups,
        "cache.hit_ratio": _ratio(hits, lookups),
        "dns.zone_self_s": self_s["dns"],
        "dns.zone_lookups": count("repro.dns.zone:Zone.lookup"),
        "server.self_s": self_s["server"],
        "server.log_read_s": sum(tracer.self_s[name] for name in LOG_READS),
        "server.log_entries": log_entries,
        "census.fold_s": self_s["census"],
        "census.rows": result.aggregates.rows,
        "export.write_s": self_s["export"],
        "export.bytes": export["bytes"],
        "export.chunks": export["chunks"],
        "trace.unattributed_s": self_s["unattributed"],
    }
