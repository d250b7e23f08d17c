"""Census benchmark: real ``run_census`` throughput, memory, set-up and
teardown, per workload, each census in a fresh process.

Usage, from the repository root::

    python3 benchmarks/census/run.py --workload census-open --seed 0 \\
        --seconds 30 --trace 0          # one workload, timed for 30 s
    python3 benchmarks/census/run.py --seed 0              # every workload once
    python3 benchmarks/census/run.py --seed 0 --trace      # per-layer run
    python3 benchmarks/census/run.py --seed 0 --out A.json # add to a run set
    python3 benchmarks/census/run.py compare A.json B.json

A run repeats the workload's census, one fresh process at a time, until
``--seconds`` are spent (at least once).  One closed-loop client, no pool:
``run.py`` waits for each census process before starting the next.  Times
are the fastest repetition's: on a shared host other tenants only ever
slow a census down, and the fastest of about ten repetitions varied about
half as much between runs as their median did.  After the timed
repetitions it reads the export back and checks it; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 1`` every other repetition runs
with layer spans installed and the metrics are the per-layer ones.

This process never imports ``repro``: a child's ``ru_maxrss`` includes the
resident size of the parent it was spawned from.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Iterable

from workloads import SEED0_DIGESTS, WORKLOADS, shape_errors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = ROOT / ".bench_build" / "census"

#: A census process that outlives this is killed and counted as failed.
REP_TIMEOUT_S = 150

#: Reported beside the end-to-end metrics but kept out of BENCHMARK.json,
#: whose metrics must never read 0 and must repeat within a third of a
#: bound of at most 25%: ``probe_qps`` is 0 without probes, the two shares
#: are 0 when nothing fails or miscounts, and a teardown of 20-100 ms
#: varied by over 10% between runs.  A bound of 0 means the value is
#: deterministic per seed; ``floor`` is an absolute allowance in the unit.
EXTRA_METRICS: dict[str, dict[str, Any]] = {
    "probe_qps": {"unit": "queries/s", "better": "higher", "bound": 0.25},
    "teardown_s": {"unit": "s", "better": "lower", "bound": 0.1,
                   "floor": 0.1},
    "fail_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "miscount_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
}


class RepFailed(Exception):
    """A census process exited non-zero, timed out or left no result."""


def load_benchmark() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- one census process ----------------------------------------------------------


def _child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    # String hashing otherwise varies per process, and with it dict and set
    # layouts: a timing input the seed does not control.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    return env


def _spawn(argv: list[str], env: dict[str, str]
           ) -> tuple[float, Any, float]:
    """Run ``argv`` to exit: ``(spawned, rusage, exited)``.

    ``rusage`` comes from ``wait4``, so its ``ru_maxrss`` covers the child
    and any children it reaped.  The child's stdout goes to our stderr so
    that our stdout carries only the report.
    """
    def expired(signum: int, frame: Any) -> None:
        raise RepFailed(f"census process ran past {REP_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(REP_TIMEOUT_S)
    pid = 0
    try:
        spawned = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
        _, status, usage = os.wait4(pid, 0)
        exited = time.monotonic()
        pid = 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if pid:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RepFailed(f"{' '.join(argv[1:3])} exited with {code}")
    return spawned, usage, exited


def _workload_process(args: list[str], work: Path
                      ) -> tuple[float, Any, float]:
    return _spawn([sys.executable, str(HERE / "workloads.py"), *args],
                  _child_env(work))


def _read_result(path: Path) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise RepFailed(f"no result from the census process: {exc}") from exc


def raw_export(out_dir: Path) -> dict[str, Any]:
    """Manifest state and the sha256 of the chunk files' bytes, in order.

    Chunks hold canonical lines, each ending in a newline, so this equals
    the rows digest that :func:`workloads.check_export` computes from the
    verified reader.
    """
    with open(out_dir / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    digest = hashlib.sha256()
    for chunk in manifest["chunks"]:
        digest.update((out_dir / chunk["name"]).read_bytes())
    return {"complete": manifest["complete"], "durable_rows": manifest["rows"],
            "raw_sha256": digest.hexdigest()}


def run_rep(name: str, seed: int, traced: bool) -> dict[str, Any]:
    """One census in a fresh process, with its timings and export state."""
    work = WORK / name
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spawned, usage, exited = _workload_process(
        ["run", name, str(seed), str(work / "export"), str(result_path),
         "1" if traced else "0"], work)
    rep = _read_result(result_path)
    rep.update(
        traced=traced,
        census_s=rep["t_return"] - rep["t_enter"],
        setup_s=rep["t_enter"] - spawned,
        teardown_s=exited - rep["t_return"],
        # Linux reports ru_maxrss in KiB.
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    rep.update(raw_export(work / "export"))
    return rep


def run_check(name: str) -> dict[str, Any]:
    work = WORK / name
    result_path = work / "check.json"
    result_path.unlink(missing_ok=True)
    _workload_process(["check", str(work / "export"), str(result_path)],
                      work)
    return _read_result(result_path)


# -- one timed run -----------------------------------------------------------------


def rep_errors(name: str, rep: dict[str, Any], check: dict[str, Any]
               ) -> list[str]:
    """Checks one repetition must pass, given the verified export."""
    count = WORKLOADS[name].count
    errors = []
    if not rep["complete"] or rep["durable_rows"] != count:
        errors.append(f"manifest complete={rep['complete']} holds "
                      f"{rep['durable_rows']} of {count} rows")
    if rep["raw_sha256"] != check["rows_sha256"]:
        errors.append("rows differ between repetitions")
    errors.extend(shape_errors(name, rep, check))
    if rep["traced"]:
        attributed = sum(rep["layer_self"].values())
        if abs(attributed - rep["census_s"]) > 0.01 * rep["census_s"]:
            errors.append(f"layer self times sum to {attributed:.4f} s, "
                          f"traced census took {rep['census_s']:.4f} s")
    return errors


def run_errors(name: str, seed: int, check: dict[str, Any]) -> list[str]:
    """Checks on the verified export that every repetition shares."""
    count = WORKLOADS[name].count
    errors = []
    if not check["complete"] or check["rows"] != count:
        errors.append(f"verified reader returned {check['rows']} of "
                      f"{count} rows (complete={check['complete']})")
    expected = SEED0_DIGESTS.get(name)
    if seed == 0 and expected is not None \
            and check["rows_sha256"] != expected:
        errors.append(f"seed-0 rows_sha256 {check['rows_sha256']} != "
                      f"recorded {expected}")
    return errors


def fastest(reps: list[dict[str, Any]], key: str) -> float:
    return min(rep[key] for rep in reps)


def end_to_end(name: str, reps: list[dict[str, Any]],
               check: dict[str, Any]) -> tuple[dict, dict]:
    """Contract metrics and extras over the untraced repetitions.

    Rows, queries and counters are the same in every repetition (the
    export digests match), so only the times differ between them.
    """
    census_s = fastest(reps, "census_s")
    metrics = {
        "rows_per_s": reps[0]["rows"] / census_s,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "setup_s": fastest(reps, "setup_s"),
    }
    extras: dict[str, float] = {}
    if WORKLOADS[name].simulate:
        count = WORKLOADS[name].count
        extras["fail_share"] = (count - reps[0]["durable_rows"]) / count
    else:
        extras["probe_qps"] = reps[0]["queries_sent"] / census_s
        sent = reps[0]["messages_sent"] - reps[0]["retransmissions"]
        extras["fail_share"] = reps[0]["timeouts"] / sent
    extras["teardown_s"] = fastest(reps, "teardown_s")
    extras["miscount_share"] = check["miscounts"] / check["rows"]
    return metrics, extras


def per_layer(reps: list[dict[str, Any]], traced: list[dict[str, Any]]
              ) -> dict[str, float]:
    """Per-layer medians over the traced repetitions."""
    metrics = {key: statistics.median(rep["layers"][key] for rep in traced)
               for key in traced[0]["layers"]}
    metrics["trace.overhead_ratio"] = (fastest(traced, "census_s")
                                       / fastest(reps, "census_s"))
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool
            ) -> dict[str, Any]:
    """Repeat workload ``name`` for ``seconds``, then check and summarize.

    With ``trace`` repetitions alternate untraced and traced, so the
    overhead ratio compares censuses run under the same conditions.
    """
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reps: list[dict[str, Any]] = []
    durations: list[float] = []
    failures: list[str] = []
    deadline = time.monotonic() + seconds
    try:
        while True:
            started = time.monotonic()
            try:
                reps.append(run_rep(name, seed, traced=trace
                                    and len(reps) % 2 == 1))
            except RepFailed as exc:
                failures.append(str(exc))
                break
            durations.append(time.monotonic() - started)
            if len(reps) >= (2 if trace else 1) and (
                    time.monotonic() + statistics.median(durations)
                    > deadline):
                break
        check = run_check(name) if reps and not failures else None
    except RepFailed as exc:
        failures.append(str(exc))
        check = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcome: dict[str, Any] = {"workload": name, "seed": seed,
                               "attempted": len(reps) + len(failures),
                               "errors": failures}
    if check is None:
        outcome["failed"] = outcome["attempted"]
        return outcome
    shared = run_errors(name, seed, check)
    per_rep = [rep_errors(name, rep, check) for rep in reps]
    outcome["errors"].extend(shared + [e for errors in per_rep
                                       for e in errors])
    outcome["failed"] = len(reps) if shared else sum(map(bool, per_rep))
    if outcome["failed"]:
        return outcome
    untraced = [rep for rep in reps if not rep["traced"]]
    outcome["metrics"], outcome["extras"] = end_to_end(name, untraced, check)
    outcome["rows_sha256"] = check["rows_sha256"]
    outcome["reps"] = len(untraced)
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        outcome["layers"] = per_layer(untraced, traced)
        outcome["layer_fractions"] = fractions(traced)
    return outcome


def fractions(traced: list[dict[str, Any]]) -> dict[str, float]:
    """Each layer's median share of the traced census wall time."""
    return {layer: statistics.median(rep["layer_self"][layer]
                                     / rep["census_s"] for rep in traced)
            for layer in traced[0]["layer_self"]}


# -- reporting ---------------------------------------------------------------------


def metric_specs(benchmark: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """name -> {unit, better[, bound, floor]} of every reported metric."""
    specs = {metric["name"]: metric for metric in
             benchmark["end_to_end"] + benchmark["per_layer"]}
    specs.update(EXTRA_METRICS)
    return specs


def report(outcome: dict[str, Any], benchmark: dict[str, Any],
           trace: bool) -> dict[str, dict[str, Any]]:
    """Print one workload's metrics; return the contract's metrics dict."""
    name = outcome["workload"]
    print(f"== {name}  seed={outcome['seed']}  "
          f"attempted={outcome['attempted']}  failed={outcome['failed']}")
    for error in outcome["errors"]:
        print(f"   FAILED: {error}")
    if "metrics" not in outcome:
        return {}
    table = metric_specs(benchmark)
    values = outcome["layers"] if trace else {**outcome["metrics"],
                                              **outcome["extras"]}
    for metric, value in values.items():
        print(f"   {metric:<26} {value:>16.6g} {table[metric]['unit']}")
    if trace:
        shares = outcome["layer_fractions"]
        print("   layer share of traced census wall: " + ", ".join(
            f"{layer} {share:.3f}" for layer, share in shares.items())
            + f"  (sum {sum(shares.values()):.4f})")
    print(f"   rows_sha256 {outcome['rows_sha256']}  "
          f"({outcome['reps']} untraced repetitions)")
    reported = outcome["layers"] if trace else outcome["metrics"]
    return {metric: {"value": value, "unit": table[metric]["unit"]}
            for metric, value in reported.items()}


def append_run_set(path: Path, outcomes: list[dict[str, Any]],
                   trace: bool) -> None:
    """Add this invocation to the run set at ``path`` (for ``compare``)."""
    runs = []
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append({"trace": trace, "workloads": {
        outcome["workload"]: {
            "seed": outcome["seed"],
            "metrics": outcome.get("layers", {}) if trace else {
                **outcome.get("metrics", {}), **outcome.get("extras", {})},
            "layer_fractions": outcome.get("layer_fractions"),
            "rows_sha256": outcome.get("rows_sha256"),
        } for outcome in outcomes}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)


def verdict(a: list[float], b: list[float], spec: dict[str, Any]) -> str:
    """``agree``, ``worse`` or ``unresolved`` for set B against set A.

    A metric may worsen by ``bound`` times A's median, or by ``floor``
    when that is larger.  ``unresolved`` means a set's quartiles lie
    further apart than that allowance.  A bound of 0 requires every value
    to be identical; a metric without a bound gets ``-``.
    """
    bound = spec.get("bound")
    if bound is None:
        return "-"
    if bound == 0:
        return "agree" if len(set(a) | set(b)) == 1 else "worse"

    def allowance(values: list[float]) -> float:
        return max(bound * abs(statistics.median(values)),
                   spec.get("floor", 0.0))

    for values in (a, b):
        q1, _, q3 = quartiles(values)
        if q3 - q1 > allowance(values):
            return "unresolved"
    change = statistics.median(b) - statistics.median(a)
    if spec["better"] == "higher":
        change = -change
    return "worse" if change > allowance(a) else "agree"


def compare(path_a: Path, path_b: Path) -> int:
    specs = metric_specs(load_benchmark())
    sets = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle)["runs"])
    disagreements = 0
    print(f"{'workload':<13} {'metric':<24} "
          f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34}  verdict")
    for name in WORKLOADS:
        runs_a = [run["workloads"][name] for run in sets[0]
                  if name in run["workloads"]]
        runs_b = [run["workloads"][name] for run in sets[1]
                  if name in run["workloads"]]
        if not runs_a or not runs_b:
            continue
        digests = {run["rows_sha256"] for run in runs_a + runs_b}
        seeds = {run["seed"] for run in runs_a + runs_b}
        if len(seeds) == 1:
            same = len(digests) == 1
            disagreements += not same
            print(f"{name:<13} {'rows_sha256':<24} "
                  f"{len(digests)} distinct digest(s) at one seed"
                  f"{'':>26}  {'agree' if same else 'worse'}")
        for metric in runs_a[0]["metrics"]:
            a = [run["metrics"][metric] for run in runs_a]
            b = [run["metrics"][metric] for run in runs_b
                 if metric in run["metrics"]]
            if len(b) != len(runs_b):
                continue
            result = verdict(a, b, specs[metric])
            disagreements += result not in ("agree", "-")
            print(f"{name:<13} {metric:<24} {_summary(a):>34} "
                  f"{_summary(b):>34}  {result}")
    return 1 if disagreements else 0


def _summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


# -- command line ------------------------------------------------------------------


def main(argv: Iterable[str]) -> int:
    argv = list(argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time to spend repeating each workload "
                             "(default 0: one census each)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="append this run's metrics to a run set")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"census benchmark: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    outcomes, metrics = [], {}
    for name in names:
        outcome = measure(name, args.seed, args.seconds, trace)
        outcomes.append(outcome)
        reported = report(outcome, benchmark, trace)
        if args.workload:
            metrics = reported
        else:
            metrics.update({f"{name}/{metric}": value
                            for metric, value in reported.items()})
    if args.out is not None:
        append_run_set(args.out, outcomes, trace)
    failed = sum(outcome["failed"] for outcome in outcomes)
    correct = failed == 0 and all("metrics" in o for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(outcome["attempted"] for outcome in outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
