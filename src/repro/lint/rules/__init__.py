"""The bundled cdelint rule set.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Each module holds one rule and documents the
determinism invariant it protects (full rationale: docs/STATIC_ANALYSIS.md).
"""

from . import (  # noqa: F401
    capture_safety,
    effects_contract,
    error_provenance,
    iteration,
    layering,
    mutable_defaults,
    public_annotations,
    randomness,
    rng_streams,
    shard_purity,
    timing_taint,
    unused_suppression,
    wallclock,
)

# NB: no ``from __future__ import annotations`` here — the future import
# binds the name ``annotations`` in the package namespace, which would
# shadow a same-named submodule in the ``from . import ...`` above.
