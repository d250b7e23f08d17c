"""CDE014: suppression comments that never suppress anything.

A ``# cdelint: disable=`` comment is a waived exception: it documents
that a human looked at a finding and accepted it.  When the code later
changes so the finding no longer fires, the stale comment keeps waiving
a violation that could silently return elsewhere on the line — and it
misleads the next reader about what the code does.

The detection is engine-implemented (the engine already knows, per run,
exactly which suppression comments filtered a finding); this class
exists so the rule has an identity — registry metadata, ``--explain``
text, SARIF descriptor, config disable.  It is **off by default**:
enable with ``--warn-unused-suppressions`` (or ``--select CDE014``).
Only rules that actually ran are audited, so a ``--select CDE003`` run
never flags a CDE001 suppression as unused.  A token naming no
registered rule (say, a rule since deleted) is flagged on every audited
run: nothing can ever fire for it.
"""

from __future__ import annotations

from ..registry import Rule, register


@register
class UnusedSuppressionRule(Rule):
    """Stale waivers are silent risk.

    **Rationale.**  Suppressions are the audit trail of deliberate
    exceptions.  An unused one is either dead documentation or a
    landmine — a future finding on that line is waived unseen.

    **Example (bad).** ::

        ordered = sorted(names)  # cdelint: disable=CDE003
        # (the sorted() wrap fixed the finding; the comment stayed)

    **Fix guidance.**  Delete the comment.  If the suppression guards a
    finding that only fires under a non-default configuration, keep it
    and run the audit with that configuration.
    """

    rule_id = "CDE014"
    name = "unused-suppression"
    summary = ("a # cdelint: disable= comment whose rule never fired on "
               "that line (audit mode, off by default)")

    #: Not part of a default run: findings are produced by the engine
    #: only under --warn-unused-suppressions / --select CDE014.
    default_enabled = False
