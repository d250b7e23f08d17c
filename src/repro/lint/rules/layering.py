"""CDE008 — the architecture layering contract.

The reproduction is layered so that measurement code can be audited
bottom-up:

    dns  →  net  →  cache / resolver / server  →  core / client
         →  study  →  cli

An arrow means "may be imported by"; a package may import its own layer
and anything *below* it, never above.  ``repro.lint`` is fully isolated:
it imports nothing from the rest of ``repro`` and nothing imports it
(the linter must stay runnable on a broken tree).  ``repro/__init__.py``
is the public facade and is exempt.

Imports inside ``if TYPE_CHECKING:`` blocks are exempt — annotations may
reference upper layers without creating a runtime dependency.  Runtime
imports are flagged wherever they appear, including function-local
"lazy" imports: deferring an upward import hides the cycle, it does not
remove it.

The layer order comes from the ``layers`` config knob (bottom first;
space-separated names within one entry form a group that may import one
another), so the contract lives next to the code it governs.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..callgraph import ImportRecord, ModuleSummary
from ..findings import Finding
from ..registry import ProjectContext, Rule, register

LINT_PACKAGE = "lint"


def package_of(rel: str) -> Optional[str]:
    """The first-level ``repro`` subpackage of a rel path, or ``None``.

    Matched on the *last* ``repro/`` segment so fixture trees like
    ``tests/fixtures/lint/x/repro/dns/mod.py`` resolve the same way the
    real tree does.  Files directly under ``repro/`` (the facade) return
    ``""``.
    """
    parts = rel.split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            remainder = parts[index + 1:]
            if not remainder:
                return None
            if len(remainder) == 1:
                return ""  # repro/<module>.py — the facade level
            return remainder[0]
    return None


def resolve_import(rel: str, record: ImportRecord) -> Optional[str]:
    """Absolute dotted target of an import record, or ``None``.

    Relative imports are resolved against the module's position under
    the last ``repro/`` segment of its path.
    """
    if record.level == 0:
        return record.module or None
    parts = rel.split("/")
    anchor = None
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            anchor = index
            break
    if anchor is None:
        return None
    # Containing package of the module; for an __init__.py this is the
    # package itself, which is exactly what level-1 resolves against.
    package = parts[anchor:-1]
    hops = record.level - 1
    if hops > len(package) - 1:
        return None  # escapes the repro tree
    base = package[:len(package) - hops] if hops else package
    target = ".".join(base)
    if record.module:
        target = f"{target}.{record.module}"
    return target


def _target_package(target: str) -> Optional[str]:
    """First-level ``repro`` subpackage of a dotted import target."""
    parts = target.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return ""
    return parts[1]


@register
class LayeringRule(Rule):
    rule_id = "CDE008"
    name = "layering"
    summary = "runtime import that violates the architecture DAG"

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        layer_of = ctx.config.layer_of()
        for rel in sorted(ctx.summaries):
            summary = ctx.summaries[rel]
            package = package_of(rel)
            if package is None or package == "":
                continue  # outside repro, or the facade — exempt
            for record in summary.imports:
                finding = self._check_import(
                    rel, package, record, layer_of)
                if finding is not None:
                    yield finding

    def _check_import(
        self, rel: str, package: str, record: ImportRecord,
        layer_of: dict[str, int],
    ) -> Optional[Finding]:
        if record.type_checking:
            return None
        target = resolve_import(rel, record)
        if target is None:
            return None
        target_package = _target_package(target)
        if target_package is None or target_package == package:
            return None
        if package == LINT_PACKAGE:
            return self.finding_at(
                rel, record.line, record.col,
                f"repro.lint must not import from the rest of repro "
                f"(runtime import of {target}) — the linter stays runnable "
                f"on a broken tree",
            )
        if target_package == LINT_PACKAGE:
            return self.finding_at(
                rel, record.line, record.col,
                f"nothing imports repro.lint at runtime "
                f"(import of {target} from repro.{package})",
            )
        if target_package == "":
            return None  # bare "repro" facade import — not layered
        source_layer = layer_of.get(package)
        target_layer = layer_of.get(target_package)
        if source_layer is None or target_layer is None:
            return None  # package outside the configured DAG
        if target_layer <= source_layer:
            return None
        return self.finding_at(
            rel, record.line, record.col,
            f"runtime import of {target} breaks the architecture DAG: "
            f"repro.{package} (layer {source_layer}) may not depend on "
            f"repro.{target_package} (layer {target_layer}) — "
            f"see docs/ARCHITECTURE.md",
        )
