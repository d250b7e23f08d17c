"""cdelint configuration, loadable from ``[tool.cdelint]`` in pyproject.toml.

Every scope knob is a tuple of posix path fragments matched against the
*end* of a checked file's path (a trailing ``/`` marks a directory
fragment matched anywhere in the path).  Suffix matching keeps the config
valid whether the linter runs from the repo root, a subdirectory, or on
absolute paths.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any


def path_matches(path: str, pattern: str) -> bool:
    """Whether posix ``path`` falls under ``pattern``.

    ``"repro/net/clock.py"`` matches by suffix; ``"repro/study/"``
    (trailing slash) matches any path with that directory fragment.
    """
    path = "/" + path.lstrip("/")
    pattern = pattern.strip("/")
    if pattern.endswith(".py"):
        return path.endswith("/" + pattern)
    return ("/" + pattern + "/") in path


def path_matches_any(path: str, patterns: tuple[str, ...]) -> bool:
    return any(path_matches(path, pattern) for pattern in patterns)


#: The CDE017 carve-out table for this tree (``pattern=justification``;
#: see :attr:`LintConfig.bounded_allow`).  Defined up front so the
#: defaults stay usable under ``--no-config`` — the mutation tests lint
#: pristine copies of ``src/repro`` that must come up clean.  The seven
#: world packages get one structural carve-out each: their state lives
#: inside a shard's :class:`SimulatedInternet`, where a lane holds one
#: in-flight platform and retires it once its row is out
#: (``SimulatedInternet.retire_platform``); ``tests/test_census_memory.py``
#: pins that bound at run time.  Everything on the
#: census-lifetime path (study/, export) is itemised per receiver with its
#: explicit bound.
_DEFAULT_BOUNDED_ALLOW: tuple[str, ...] = (
    # -- world-scoped packages: lifetime is one shard's world ---------------
    "repro/dns/*=shard-world-scoped (messages, zones) plus per-name "
    "intern/encode memos capped at 8192 entries; a lane holds one "
    "in-flight platform and retires it after its row, with the records "
    "its measurement planted in the CDE zone, so every zone is back to "
    "its built shape between platforms",
    "repro/cache/*=shard-world-scoped; TTL+capacity eviction bounds "
    "each cache, and a cache lives only as long as its platform: one "
    "in-flight platform per lane, retired after its row",
    "repro/resolver/*=shard-world-scoped (pools, frontend table, "
    "selector load, per-query visited/trace bounded by chain depth), "
    "owned by the lane's one in-flight platform and dropped when it "
    "retires after its row",
    "repro/server/*=shard-world-scoped (zones, RRL token buckets, "
    "hierarchy maps, the per-world QueryLogs, which forget their "
    "entries when a platform retires after its row): one in-flight "
    "platform's arrivals per lane",
    "repro/client/*=shard-world-scoped (browser host cache, SMTP "
    "attempt records), made per platform and dropped when it retires "
    "after its row: one in-flight platform per lane",
    "repro/net/*=shard-world-scoped (endpoints and RNG stream memo, "
    "whose per-platform entries are released when a platform retires "
    "after its row; RRL window pruned per decision; per-shard perf "
    "counters): one in-flight platform per lane",
    "repro/core/*=shard-world-scoped (monitor history, prober URL "
    "list, hierarchy registry and planted-record list, the last two "
    "cleared by retire_planted); nothing else per platform on the census "
    "path, which holds one in-flight platform per lane and retires it "
    "after its row",
    # -- the linter itself --------------------------------------------------
    "repro/lint/*=never on a measurement path; reachable only through "
    "simple-name call binding (same precedent as shard-state-allow)",
    # -- census-lifetime accumulators, itemised -----------------------------
    "repro/study/accuracy.py::AccuracyReport.add_row::*=fixed label-set "
    "accuracy cells (technique x selector class), integer counters only",
    "repro/study/census.py::CensusAggregates.add_row::*=online aggregate "
    "fold: integer cells over fixed or value-bounded key sets",
    "repro/study/census.py::_fold_and_write::keep=in-memory mode only: "
    "keep is None on every streaming path",
    "repro/study/engine.py::PipelinedEngine.stream::active=lane "
    "scheduling list, bounded by the lane count",
    "repro/study/engine.py::PipelinedEngine.stream::delivered=fixed-size "
    "per-lane delivery cursor",
    "repro/study/engine.py::PipelinedEngine.stream::buffers[]=per-lane "
    "reorder buffers drained in delivery order, bounded by "
    "STREAM_BUFFER_ROWS per lane",
    "repro/study/engine.py::ShardLane._lane_turns::self.rows=drained by "
    "drain_rows every pipeline turn, bounded by rows per turn",
    "repro/study/engine.py::_FastPlan.build::cold_chains=per-platform "
    "plan construction, lifetime one platform",
    "repro/study/engine.py::_fused_upstream_*::plan.corridor=fixed-size "
    "per-cache memo (len == n_caches), slots overwritten in place",
    "repro/study/export.py::CensusWriter.write_dict::self._buffer="
    "flushed every chunk_size rows, bounded by chunk_size",
    "repro/study/export.py::CensusWriter._flush_chunk::self.chunks="
    "manifest chunk index: one entry per chunk_size rows, the resume "
    "contract itself",
    "repro/study/internet.py::SimulatedInternet.add_platform_from_spec::"
    "self.platforms=shard-world platform registry: the lane's one "
    "in-flight platform, removed by retire_platform after its row",
    "repro/study/parallel.py::_merge_spilled::taken=fixed-size per-shard "
    "merge cursor (len == n_shards)",
    "repro/study/stats.py::*=fixed-size accumulators: integer counters "
    "over value-bounded keys (CDF points, bubble grid, fault kinds)",
    "repro/study/trends.py::TrendStudy.run::self.rounds=name-binding "
    "artifact via the generic '.run' callee; the trend study is a "
    "top-level driver (per-round summaries, bounded by round count), "
    "never on the streaming path",
)


@dataclass(frozen=True)
class LintConfig:
    """Scopes and allow-lists for the rule set (see docs/STATIC_ANALYSIS.md)."""

    #: Files/directories never linted.
    exclude: tuple[str, ...] = ()
    #: The only files allowed to touch the wall clock (CDE001).
    wallclock_allow: tuple[str, ...] = ("repro/net/clock.py",)
    #: The only files allowed to use global/unseeded randomness (CDE002).
    rng_allow: tuple[str, ...] = ("repro/net/rng.py",)
    #: Result paths where unordered iteration leaks into output (CDE003).
    ordered_paths: tuple[str, ...] = (
        "repro/study/", "repro/core/", "repro/server/",
    )
    #: ``path::function`` shard-worker entry points (CDE004).
    #: ``run_shard`` reaches the engine through a lazy import (the engine
    #: imports parallel for its task types), so the lane entry points are
    #: listed explicitly.
    shard_entries: tuple[str, ...] = (
        "repro/study/parallel.py::run_shard",
        "repro/study/engine.py::ShardLane.run_to_completion",
        "repro/study/engine.py::PipelinedEngine.stream",
        "repro/study/measurement.py::measure_population",
        # measure_population reaches these through the MEASURES dict (a
        # variable call the graph cannot resolve), so the per-technique
        # measurers are shard entry points in their own right.
        "repro/study/measurement.py::measure_direct",
        "repro/study/measurement.py::measure_via_smtp",
        "repro/study/measurement.py::measure_via_browser",
    )
    #: ``path::qualname`` roots whose call graphs must stay effect-free
    #: (CDE007): the shard worker plus the fault/retry decision paths.
    effect_roots: tuple[str, ...] = (
        "repro/study/parallel.py::run_shard",
        "repro/net/faults.py::FaultInjector.decide",
        "repro/core/resilient.py::RetryPolicy.delay_with_jitter",
        "repro/core/resilient.py::RetryPolicy.backoff",
        "repro/core/prober.py::DirectProber._query_resilient",
        "repro/resolver/stub.py::StubResolver._transact",
    )
    #: The architecture DAG (CDE008), bottom layer first; names within one
    #: entry (space-separated) form a group that may import one another.
    layers: tuple[str, ...] = (
        "dns", "net", "cache resolver server", "core client", "study", "cli",
    )
    #: Packages whose public API must be fully annotated (CDE006).
    typed_paths: tuple[str, ...] = (
        "repro/study/", "repro/core/", "repro/server/", "repro/lint/",
    )
    #: CDE010 timing-taint sources (attribute/call patterns; the call
    #: table is single-sourced with the CDE001 CLOCK leaves — see
    #: ``repro.lint.taint``).  Attribute patterns must end with a
    #: candidate-universe suffix to be tracked in summaries.
    timing_sources: tuple[str, ...] = (
        "clock.now", ".rtt", ".dns_rtt",
        "time.time", "time.monotonic", "time.perf_counter",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    )
    #: CDE010 counting/export sinks: a timing value reaching any of these
    #: callees unclassified is a finding.  PerfCounters/ShardPerf are
    #: deliberately absent — they are the sanctioned wall-time telemetry.
    timing_sinks: tuple[str, ...] = (
        "CacheCountEstimate", "estimate_from_occupancy",
        "PlatformMeasurement", "measurement_to_dict",
        "measurements_to_dict", "report_to_dict", "table1_to_dict",
    )
    #: CDE010 sanitizers: the hit/miss classification boundary.  A value
    #: crossing one of these calls becomes a classification, not a time.
    timing_sanitizers: tuple[str, ...] = (
        "LatencyClassifier.fit", "is_miss", "split_bimodal",
    )
    #: ``path::qualname`` shard-merge entry points (CDE011): code
    #: reachable from these but NOT from :attr:`shard_entries` handles
    #: rows from many worlds and must not touch world-scoped state.
    merge_entries: tuple[str, ...] = (
        "repro/study/parallel.py::run_parallel_measurement",
    )
    #: Shard-spec constructors (CDE012): fork-unsafe resources must not
    #: flow into these (specs are pickled across process boundaries).
    shard_spec_types: tuple[str, ...] = ("ShardTask", "WorldConfig")
    #: Files whose module-level mutable globals are sanctioned for shard
    #: use (CDE012) — deterministic value-interning memoisation (the name
    #: intern table and the per-name wire-encode cache: entries depend
    #: only on their keys, so cross-lane sharing cannot change output),
    #: plus the linter's own import-time rule registry (never on a shard
    #: path; it only appears reachable through simple-name call binding).
    shard_state_allow: tuple[str, ...] = ("repro/dns/name.py",
                                          "repro/dns/wire.py",
                                          "repro/lint/")
    #: Probe-path scopes (CDE013): except handlers here must not swallow
    #: probe-failure history.
    probe_paths: tuple[str, ...] = ("repro/core/",)
    #: Exception types whose *silent* swallowing on a probe path loses
    #: the degradation signal (CDE013).
    probe_error_types: tuple[str, ...] = (
        "ProbeFailure", "QueryTimeout", "ResolutionError",
    )
    #: Exception types carrying AttemptRecord history (CDE013): catching
    #: one without using or re-raising it discards the history.
    probe_history_types: tuple[str, ...] = ("ProbeFailure",)
    #: cdesync (CDE015) RNG-callable table: ``name=method`` maps a call
    #: whose resolved chain *ends* in ``name`` to a canonical RNG method
    #: token.  ``randbelow`` is the canonical form of ``randrange`` and
    #: ``randint``; the ``*_randrange`` and ``sel_state`` entries are the
    #: fused corridor's bound ``randrange`` slots.
    trace_rng_callables: tuple[str, ...] = (
        "random=random", "gauss=gauss", "uniform=uniform",
        "choice=choice", "shuffle=shuffle",
        "randrange=randbelow", "randint=randbelow",
        "rng_random=random", "rng_gauss=gauss",
        "prober_randrange=randbelow", "platform_randrange=randbelow",
        "egress_randrange=randbelow", "sel_state=randbelow",
    )
    #: cdesync container attributes: a call whose resolved chain passes
    #: *through* one of these is a container read/helper and emits no
    #: trace token (mutations still label by the container attribute).
    #: ``sel_state`` doubles as the fused selector scratch slot (its memo
    #: is a deterministic cache of a pure hash, so its mutations are
    #: unobservable by design).
    trace_containers: tuple[str, ...] = (
        "_entries", "_rrsets", "_by_qname", "_by_suffix", "_timestamps",
        "_frontend_table", "_marks", "_load", "sel_state", "corridor",
        "suffix_tails",
    )
    #: cdesync observable state attributes (underscore-stripped): only
    #: mutations of these labels appear in canonical traces, and a write
    #: through a :attr:`trace_containers` slot is never observable
    #: regardless of label.  ``_now`` is always observable (the clock
    #: token) and need not be listed.
    trace_state_attrs: tuple[str, ...] = (
        "hits", "misses", "insertions", "evictions", "expirations",
        "queries", "cache_hits", "cache_misses", "upstream_queries",
        "failures", "frontend_collapsed", "prefetches", "queries_sent",
        "messages_sent", "messages_delivered", "requests_lost",
        "responses_lost", "timeouts", "retransmissions", "faults_injected",
        "next", "sequence", "last_used",
    )
    #: cdesync replica bindings beyond the in-source ``# cdelint:
    #: replica-of=`` markers: ``path-suffix::qualname=dotted.original``.
    replicas: tuple[str, ...] = ()
    #: Replica bindings to *canonicalize but not check* (CDE015): the
    #: pair still collapses to a sync token inside other checked pairs,
    #: recording equivalence as an assumption rather than a proof.
    replicas_assume: tuple[str, ...] = ()
    #: cdebound (CDE017) streaming entry points (``path::qualname``): no
    #: container reachable from these may accumulate per-row state.
    stream_entries: tuple[str, ...] = (
        "repro/study/parallel.py::stream_parallel_measurement",
        "repro/study/parallel.py::_run_shard_spill",
        "repro/study/parallel.py::_merge_spilled",
        "repro/study/engine.py::PipelinedEngine.stream",
        "repro/study/census.py::run_census",
        "repro/study/export.py::CensusWriter.write_row",
        "repro/study/export.py::CensusWriter.write_dict",
    )
    #: cdebound (CDE017) carve-outs: ``pattern=justification`` where the
    #: fnmatch pattern is matched against ``<rel>::<qualname>::<receiver>``
    #: (floating: a leading ``*`` is implied).  Every entry must state the
    #: bound that keeps the growth finite — see docs/STATIC_ANALYSIS.md.
    bounded_allow: tuple[str, ...] = _DEFAULT_BOUNDED_ALLOW
    #: cdebound (CDE018) hot paths (``path::qualname``): the per-probe
    #: fused corridor and lane batch loops, where a hoistable allocation
    #: is a per-probe cost the fast path exists to avoid.
    hot_paths: tuple[str, ...] = (
        "repro/study/engine.py::_leg",
        "repro/study/engine.py::_fused_probe",
        "repro/study/engine.py::_fused_resolve",
        "repro/study/engine.py::_fused_resolve_chain",
        "repro/study/engine.py::_fused_upstream",
        "repro/study/engine.py::_fused_upstream_cold",
        "repro/study/engine.py::_fused_cde_transaction",
        "repro/study/engine.py::_fused_upstream_slow",
        "repro/study/engine.py::_measure_direct_turns",
        "repro/study/engine.py::ShardLane._lane_turns",
    )
    #: cdebound (CDE019) export entry points (``path::qualname``): every
    #: write-mode ``open()`` reachable from these must stage to ``.part``
    #: and publish with ``os.replace``/``os.rename``.
    export_entries: tuple[str, ...] = (
        "repro/study/export.py::CensusWriter.write_row",
        "repro/study/export.py::CensusWriter.write_dict",
        "repro/study/export.py::CensusWriter.close",
    )
    #: Rule IDs disabled globally.
    disable: tuple[str, ...] = ()

    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "LintConfig":
        """Config from ``[tool.cdelint]``; defaults when absent."""
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
        section = data.get("tool", {}).get("cdelint", {})
        return cls.from_mapping(section)

    @classmethod
    def from_mapping(cls, section: dict[str, Any]) -> "LintConfig":
        known = {f.name for f in fields(cls)}
        overrides: dict[str, Any] = {}
        for raw_key, value in section.items():
            key = raw_key.replace("-", "_")
            if key not in known:
                raise ValueError(f"unknown [tool.cdelint] key: {raw_key!r}")
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ValueError(
                    f"[tool.cdelint] {raw_key!r} must be a list of strings"
                )
            overrides[key] = tuple(value)
        return replace(cls(), **overrides)

    def layer_of(self) -> dict[str, int]:
        """Package name -> layer index (bottom = 0) from :attr:`layers`."""
        mapping: dict[str, int] = {}
        for index, group in enumerate(self.layers):
            for package in group.split():
                mapping[package] = index
        return mapping

    def config_hash(self) -> str:
        """Stable digest of this config, for incremental-cache keying."""
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = start if start.is_dir() else start.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None
