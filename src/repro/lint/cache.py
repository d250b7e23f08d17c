"""Incremental analysis cache (``.cdelint_cache/``).

The cache stores three things, all keyed so that staleness is impossible
by construction:

* **Per-file summaries** (:class:`~repro.lint.callgraph.ModuleSummary`),
  keyed by the file's content hash.  A warm run re-parses only files
  whose bytes changed; every whole-program index (call graph, effect
  propagation, layering, stream hygiene) is rebuilt from summaries.
* **Per-file findings** of the module-scoped rules, keyed by content
  hash *plus* an environment key covering the config, the rule set that
  ran, and the project-wide set-returning-callables index (CDE003's only
  cross-file input) — so an edit that changes a return annotation in one
  file correctly invalidates the iteration findings of every file.
* **Propagated effect signatures** plus the call graph's binding
  fingerprint, so a warm run re-propagates only the dirty subgraph
  (:meth:`repro.lint.effects.EffectAnalysis.build`); when the set of
  functions changed (one was added, deleted, renamed or moved), name-based
  binding may have changed anywhere and the signatures are discarded
  wholesale.

The whole cache is one JSON document written atomically (tmp + rename),
so a crashed or raced run can only ever lose the cache, never corrupt a
report.  Deleting ``.cdelint_cache/`` is always safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional

from .callgraph import SUMMARY_VERSION, ModuleSummary
from .findings import Finding
from .module import SuppressionKey

#: Bump to invalidate every cache on disk (schema or engine changes).
#: Schema 2: findings entries became ``{"f": [...], "u": [...]}`` blobs
#: carrying the used-suppression keys alongside the findings, so the
#: CDE014 unused-suppression audit is byte-identical cold vs warm.
CACHE_SCHEMA = 2

DEFAULT_CACHE_DIR = Path(".cdelint_cache")


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:24]


def _finding_to_json(finding: Finding) -> dict[str, Any]:
    return finding.to_json()


def _finding_from_json(raw: dict[str, Any]) -> Finding:
    return Finding(
        path=str(raw["path"]), line=int(raw["line"]), col=int(raw["col"]),
        rule_id=str(raw["rule"]), message=str(raw["message"]),
        symbol=str(raw.get("symbol", "")),
    )


class AnalysisCache:
    """One load-mutate-save cycle over ``<directory>/cache.json``."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.path = self.directory / "cache.json"
        self._data: dict[str, Any] = self._load()
        self._dirty = False

    def _load(self) -> dict[str, Any]:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            raw = {}
        if (not isinstance(raw, dict)
                or raw.get("schema") != CACHE_SCHEMA
                or raw.get("summary_version") != SUMMARY_VERSION):
            raw = {"schema": CACHE_SCHEMA,
                   "summary_version": SUMMARY_VERSION,
                   "files": {}, "effects": {}}
        raw.setdefault("files", {})
        raw.setdefault("effects", {})
        return raw

    # -- per-file summaries -------------------------------------------------

    def lookup_summary(self, rel: str, sha: str) -> Optional[ModuleSummary]:
        entry = self._data["files"].get(rel)
        if not entry or entry.get("sha") != sha:
            return None
        try:
            return ModuleSummary.from_json(entry["summary"])
        except (KeyError, TypeError, ValueError):
            return None

    def store_summary(self, rel: str, sha: str,
                      summary: ModuleSummary) -> None:
        self._data["files"][rel] = {"sha": sha, "summary": summary.to_json(),
                                    "findings": {}}
        self._dirty = True

    # -- per-file module-rule findings --------------------------------------

    def lookup_findings(
        self, rel: str, sha: str, env_key: str,
    ) -> Optional[tuple[list[Finding], list[SuppressionKey]]]:
        entry = self._data["files"].get(rel)
        if not entry or entry.get("sha") != sha:
            return None
        blob = entry.get("findings", {}).get(env_key)
        if blob is None:
            return None
        try:
            findings = [_finding_from_json(raw) for raw in blob["f"]]
            used = [(str(kind), int(line), str(token))
                    for kind, line, token in blob["u"]]
            return findings, used
        except (KeyError, TypeError, ValueError):
            return None

    def store_findings(self, rel: str, sha: str, env_key: str,
                       findings: list[Finding],
                       used: list[SuppressionKey]) -> None:
        entry = self._data["files"].get(rel)
        if not entry or entry.get("sha") != sha:
            return
        # Keep exactly one environment per file: switching configs back
        # and forth re-lints, which is correct and keeps the cache small.
        entry["findings"] = {
            env_key: {"f": [_finding_to_json(f) for f in findings],
                      "u": [list(key) for key in sorted(used)]}}
        self._dirty = True

    # -- propagated effect signatures ---------------------------------------

    def lookup_signatures(
        self, binding_fingerprint: str,
    ) -> Optional[dict[str, list[str]]]:
        blob = self._data.get("effects", {})
        if blob.get("binding") != binding_fingerprint:
            return None
        signatures = blob.get("signatures")
        if not isinstance(signatures, dict):
            return None
        return signatures

    def store_signatures(self, binding_fingerprint: str,
                         signatures: dict[str, list[str]]) -> None:
        self._data["effects"] = {"binding": binding_fingerprint,
                                 "signatures": signatures}
        self._dirty = True

    # -- lifecycle ----------------------------------------------------------

    def prune(self, live_rels: set[str]) -> None:
        """Drop entries for files outside ``live_rels``.

        Maintenance API — the engine deliberately does not call this,
        because different invocations may lint different subtrees and a
        run over one subtree must not evict another's warm entries.
        Deleting the cache directory is always a safe full reset.
        """
        stale = [rel for rel in self._data["files"] if rel not in live_rels]
        for rel in stale:
            del self._data["files"][rel]
            self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(self._data, sort_keys=True)
            handle = tempfile.NamedTemporaryFile(
                "w", dir=self.directory, suffix=".tmp", delete=False,
                encoding="utf-8")
            try:
                with handle:
                    handle.write(payload)
                os.replace(handle.name, self.path)
            except OSError:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
        except OSError:
            # A read-only tree degrades to cold runs; never fail the lint.
            pass
