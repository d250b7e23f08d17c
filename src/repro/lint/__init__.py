"""cdelint — AST-based determinism & measurement-integrity linter.

The paper's counting techniques attribute every query observed at the
authoritative server to exactly one cache miss; that attribution only
holds while the reproduction stays deterministic (virtual clock, seeded
RNG streams, ordered result paths, pure shard workers).  cdelint encodes
those invariants as machine-checked rules:

========  ======================  ==========================================
Rule      Name                    Invariant
========  ======================  ==========================================
CDE001    wall-clock              time flows only from ``SimClock``
CDE002    seeded-randomness       draws flow only from seeded streams
CDE003    unordered-iteration     set iteration order never reaches rows
CDE004    shard-purity            shard output is a function of ShardTask
CDE005    mutable-default         no state shared through default args
CDE006    public-annotations      public APIs feed the strict mypy gate
CDE007    effect-contract         no CLOCK/RNG/IO/ENV reachable from roots
CDE008    layering                imports follow the architecture DAG
CDE009    rng-stream-hygiene      one stream label, one drawing call site
CDE010    timing-taint            raw latencies reach sinks only classified
CDE012    capture-safety          shard workers capture no mutable state
CDE013    error-provenance        probe handlers keep failure history
CDE014    unused-suppression      waivers must waive something (opt-in)
========  ======================  ==========================================

CDE004 and CDE007–CDE009 are whole-program rules: they run on a
project-wide call graph with fixed-point effect signatures
(:mod:`repro.lint.effects`), cached incrementally under
``.cdelint_cache/``.  CDE010, CDE012 and CDE013 are dataflow rules:
cdeflow (:mod:`repro.lint.dataflow` / :mod:`repro.lint.taint`) computes
per-function def-use chains and lifts them interprocedurally through
the same summaries, so every finding carries a source→sink witness
chain.  Run ``python -m repro.lint src/`` (``--format
json|sarif`` for machine-readable reports, ``--fix`` for mechanical
autofixes); suppress a deliberate exception with
``# cdelint: disable=CDE00x`` on the flagged line.  Configuration is the
:class:`LintConfig` defaults (a ``[tool.cdelint]`` table in pyproject.toml
may override them); rationale in
docs/STATIC_ANALYSIS.md, layering in docs/ARCHITECTURE.md.
"""

from __future__ import annotations

from .callgraph import CallGraph, ModuleSummary, summarize_module
from .config import LintConfig
from .dataflow import FlowEdge, FlowResult, analyze_function
from .effects import Effect, EffectAnalysis
from .engine import iter_python_files, run_lint
from .findings import JSON_SCHEMA_VERSION, Finding, LintReport
from .fix import FIXABLE_RULES, apply_fixes, plan_fixes, render_diff
from .registry import ProjectContext, Rule, all_rules, register
from .sarif import to_sarif
from .taint import TaintFlow, TaintSpec, propagate

__all__ = [
    "CallGraph",
    "Effect",
    "EffectAnalysis",
    "FIXABLE_RULES",
    "Finding",
    "FlowEdge",
    "FlowResult",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "LintReport",
    "ModuleSummary",
    "ProjectContext",
    "Rule",
    "TaintFlow",
    "TaintSpec",
    "all_rules",
    "analyze_function",
    "apply_fixes",
    "iter_python_files",
    "plan_fixes",
    "propagate",
    "register",
    "render_diff",
    "run_lint",
    "summarize_module",
    "to_sarif",
]
