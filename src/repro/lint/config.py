"""cdelint configuration: the :class:`LintConfig` defaults are the one
source; a ``[tool.cdelint]`` table in pyproject.toml may override any knob.

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
    #: ``path::function`` shard-worker entry points (CDE004): the two lane
    #: drivers — ``run_shard``, which runs one lane to completion (the pool
    #: worker's loop), and the in-process stream that steps every lane —
    #: plus the one-world sequential measurer.  Everything they hand on as
    #: a value (the lane's probe closures, the ``MEASURES`` table's
    #: measurers) is reached through value-reference edges.
    shard_entries: tuple[str, ...] = (
        "repro/study/parallel.py::run_shard",
        "repro/study/parallel.py::stream_parallel_measurement._stream",
        "repro/study/measurement.py::measure_population",
    )
    #: ``path::qualname`` roots whose call graphs must stay effect-free
    #: (CDE007): the shard worker and the fault/retry decision paths.
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
    #: Shard-spec constructors (CDE012): fork-unsafe resources must not
    #: flow into these (specs are pickled across process boundaries).
    shard_spec_types: tuple[str, ...] = ("ShardTask", "WorldConfig")
    #: Files whose module-level mutable globals are sanctioned for shard
    #: use (CDE012) — deterministic value-interning memoisation (the name
    #: intern table and the per-name wire-encode cache: entries depend
    #: only on their keys, so cross-lane sharing cannot change output).
    shard_state_allow: tuple[str, ...] = ("repro/dns/name.py",
                                          "repro/dns/wire.py")
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
