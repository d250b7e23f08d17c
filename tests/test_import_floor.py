"""Import floor: a census process loads only the code a census runs.

``repro``, ``repro.core`` and ``repro.study`` re-export their names
lazily (:mod:`repro._lazy`), the process pool is imported only when a
census starts one, and the measurement engine only when a census
measures, so importing the census driver or the CLI must not load the
figure, trend, poisoning, lint or engine code, nor
``concurrent.futures``/``multiprocessing``.  Each of those would add to
every census process's peak RSS.  The checks run in a fresh interpreter,
because the test process has long since imported everything; they
measure which modules are loaded, never time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules a census never runs, so importing the census must not load them.
#: The engine modules run only in a measuring census, never a simulated one.
NOT_LOADED = (
    "concurrent.futures",
    "multiprocessing",
    "repro.study.figures",
    "repro.study.trends",
    "repro.core.poisoning",
    "repro.lint",
)
ENGINE = ("repro.study.parallel", "repro.study.engine")

LAZY_PACKAGES = ("repro", "repro.core", "repro.study")


def _fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("module", ["repro.study.census", "repro.cli"])
def test_import_loads_no_report_pool_or_lint_modules(module):
    loaded = _fresh(
        f"import importlib, json, sys\n"
        f"importlib.import_module({module!r})\n"
        f"print(json.dumps(sorted(sys.modules)))\n")
    unexpected = [name for name in NOT_LOADED + ENGINE if name in loaded]
    assert not unexpected, (
        f"import {module} loaded {unexpected}: a census process pays "
        f"their memory without running them")


def test_simulated_census_loads_no_engine():
    loaded = _fresh(
        "import json, sys\n"
        "from repro.study.census import run_census\n"
        "assert run_census(count=20, simulate=True).aggregates.rows == 20\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert [name for name in ENGINE if name in loaded] == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves_and_is_listed(package):
    count, unlisted = _fresh(
        f"import importlib, json\n"
        f"package = importlib.import_module({package!r})\n"
        f"listed = set(dir(package))\n"
        f"for name in package.__all__:\n"
        f"    getattr(package, name)\n"
        f"print(json.dumps([len(package.__all__),\n"
        f"                  sorted(set(package.__all__) - listed)]))\n")
    assert count > 1
    assert unlisted == []


def test_unknown_name_is_an_attribute_error():
    import repro.study

    with pytest.raises(AttributeError, match="no attribute 'build_wrold'"):
        getattr(repro.study, "build_wrold")
