"""Cold vs warm incremental-cache benchmark (``BENCH_lint.json``).

Lints ``src/`` twice against a fresh cache directory: the cold leg
parses and summarises every file and propagates every effect signature;
the warm leg replays summaries, findings and signatures from
``cache.json`` and re-propagates nothing.  A third leg touches one file
(rewrites identical-length bytes so the content hash changes) and shows
the dirty-subgraph cost sitting between the two.

The committed artifact records wall seconds (best of ``REPEATS``) and
the engine's own re-analysis counters, and the pytest gate asserts the
advertised invariant: warm is at least ``MIN_SPEEDUP``× faster than
cold.  ``lint_source_lines`` records the size of the linter itself (all
lines of ``src/repro/lint/**/*.py``), so rule deletions show up in the
artifact next to the time they save.

Usage::

    python benchmarks/bench_lint_incremental.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_lint.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lint import LintConfig, run_lint  # noqa: E402

REPEATS = 3
MIN_SPEEDUP = 3.0


def _lint_source_lines(src: Path) -> int:
    """Total line count of the linter's own sources."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((src / "repro" / "lint").rglob("*.py")))


def _time_run(config: LintConfig, src: Path,
              cache_dir: Path) -> tuple[float, object]:
    start = time.perf_counter()
    report = run_lint([src], config=config, cache_dir=cache_dir)
    return time.perf_counter() - start, report


def run_benchmark() -> dict:
    config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
    src = REPO_ROOT / "src"

    cold_times: list[float] = []
    warm_times: list[float] = []
    edit_times: list[float] = []
    counters: dict[str, int] = {}

    with tempfile.TemporaryDirectory() as scratch:
        # The edited-file leg rewrites a file, so work on a copy of src.
        tree = Path(scratch) / "src"
        shutil.copytree(src, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = tree / "repro" / "net" / "rng.py"
        original = target.read_text(encoding="utf-8")

        for _ in range(REPEATS):
            cache_dir = Path(scratch) / "cache"
            shutil.rmtree(cache_dir, ignore_errors=True)
            target.write_text(original, encoding="utf-8")

            elapsed, cold = _time_run(config, tree, cache_dir)
            cold_times.append(elapsed)

            elapsed, warm = _time_run(config, tree, cache_dir)
            warm_times.append(elapsed)
            assert warm.reanalyzed_files == ()
            assert warm.findings == cold.findings

            target.write_text(original + "\n# touched\n", encoding="utf-8")
            elapsed, edited = _time_run(config, tree, cache_dir)
            edit_times.append(elapsed)

            counters = {
                "files_checked": cold.files_checked,
                "rules_run": len(cold.rules_run),
                "reanalyzed_cold": len(cold.reanalyzed_files),
                "reanalyzed_warm": len(warm.reanalyzed_files),
                "reanalyzed_after_edit": len(edited.reanalyzed_files),
                "effects_recomputed_after_edit":
                    len(edited.effects_recomputed),
            }

        counters["lint_source_lines"] = _lint_source_lines(tree)

    cold_s, warm_s, edit_s = min(cold_times), min(warm_times), min(edit_times)
    return {
        "repeats": REPEATS,
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "edited_one_file_seconds": round(edit_s, 6),
        "warm_speedup": round(cold_s / warm_s, 2),
        "min_speedup_required": MIN_SPEEDUP,
        **counters,
    }


def write_artifact() -> dict:
    payload = run_benchmark()
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def test_warm_cache_is_at_least_3x_faster() -> None:
    payload = run_benchmark()
    assert payload["reanalyzed_warm"] == 0
    assert payload["reanalyzed_after_edit"] == 1
    assert payload["warm_speedup"] >= MIN_SPEEDUP, payload


if __name__ == "__main__":
    payload = write_artifact()
    print(f"wrote {ARTIFACT.name}: cold {payload['cold_seconds']}s, "
          f"warm {payload['warm_seconds']}s "
          f"({payload['warm_speedup']}x speedup)")
