"""Lazy re-exports for the package facades (PEP 562).

``repro``, ``repro.core`` and ``repro.study`` re-export names from their
submodules.  Importing every submodule up front would make any import of
the toolkit pay for all of it: a census would load figures, trends,
poisoning and the process pool it never runs.  So each facade keeps its
re-exports as plain ``from .x import (...)`` lines under
``if TYPE_CHECKING:`` -- type checkers and readers see ordinary imports --
and :func:`lazy_exports` derives the runtime side from those same lines:
``__all__``, and a module ``__getattr__``/``__dir__`` that imports a
submodule the first time one of its names is read.  The facade assigns
them under ``if not TYPE_CHECKING:``, so a type checker never sees the
catch-all ``__getattr__`` and a misspelt ``from repro.study import X``
stays a type error.
"""

from __future__ import annotations

import ast
import importlib
from typing import Any, Callable, Optional

#: ``{exported name: (relative module, attribute or None for the module)}``
ExportTable = dict[str, tuple[str, Optional[str]]]


def _type_checking_exports(source: str) -> ExportTable:
    """The relative imports under the top-level ``if TYPE_CHECKING:``."""
    table: ExportTable = {}
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.If)
                and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.ImportFrom) and stmt.level == 1):
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name
                if stmt.module is None:     # ``from . import sub``
                    table[name] = ("." + alias.name, None)
                else:
                    table[name] = ("." + stmt.module, alias.name)
    return table


def lazy_exports(namespace: dict[str, Any]
                 ) -> tuple[list[str], Callable[[str], Any],
                            Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the facade ``namespace``.

    ``namespace`` is the facade's ``globals()``.  A resolved name is
    stored there, so each name costs one ``__getattr__`` call at most.
    """
    package = namespace["__name__"]
    source = namespace["__spec__"].loader.get_source(package)
    table = _type_checking_exports(source)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module, package)
        if attr is not None:
            value = getattr(value, attr)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return list(table), __getattr__, __dir__
