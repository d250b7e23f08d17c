"""Census benchmark workloads and the process that runs one of them.

Importing this module loads no ``repro`` code, so ``run.py``, which
imports it, stays a small process: a child's ``ru_maxrss`` starts from
its parent's resident size, and a large parent would hide the workload's
own peak.

As a script it is the workload process::

    workloads.py run NAME SEED OUT_DIR RESULT_JSON TRACE   # one census
    workloads.py check OUT_DIR RESULT_JSON                  # verify its export

``run`` stamps the monotonic clock just before ``run_census`` is called and
just after it returns, so ``run.py`` can split the process's life into
set-up, census and teardown.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True)
class Workload:
    """One census configuration; ``seed`` is the only other input.

    Why each workload exists is recorded in BENCHMARK.json.
    """

    population: str
    count: int
    simulate: bool = False
    #: ``WorldConfig`` fields other than the seed.
    world: dict[str, str] = field(default_factory=dict)
    #: Population tail caps (``max_ingress``, ``max_caches``, ``max_egress``).
    caps: dict[str, int] = field(default_factory=dict)
    #: What ``--seed`` draws for an engine workload: the ``"world"`` (the
    #: ``run_census`` seed: shard worlds, latency, loss, cache selection,
    #: SMTP policies) or the ``"population"`` (the platform specs).  The
    #: other is drawn at :data:`PINNED_SEED`.
    seed_draws: str = "world"


#: Counts are sized so one census takes 2-4 s on a 2-core x86 host, which
#: fits several fresh-process repetitions into each timed run.
#:
#: ``--seed`` draws whichever input leaves the census's work steady from
#: one seed to the next.  Open-resolver populations have a heavy tail:
#: drawn per seed, census-open's peak RSS varied 3.7% between the quartiles
#: of ten seeds, against 0.2% with one population.  The world draws each
#: mail server's SMTP policy, which multiplies its lookups: drawn per seed,
#: 320 capped servers varied 7.5% in lookups; with the world pinned and the
#: tail capped so every server sends the same probes, 160 varied under 0.5%.
WORKLOADS: dict[str, Workload] = {
    "census-open": Workload("open-resolvers", 2000),
    "census-lossy": Workload(
        "open-resolvers", 500,
        world={"fault_profile": "loss-default", "retry_profile": "paper"}),
    "census-smtp": Workload(
        "email-servers", 160,
        caps={"max_ingress": 2, "max_caches": 2, "max_egress": 4},
        seed_draws="population"),
    "fold-export": Workload("open-resolvers", 50_000, simulate=True),
}

#: The seed of whichever input ``--seed`` does not draw.  At seed 0 every
#: workload is exactly ``run_census(population=..., count=..., seed=0)``.
PINNED_SEED = 0

#: sha256 of each workload's NDJSON rows at seed 0 (every canonical line
#: followed by a newline).  A change that alters any row changes these.
SEED0_DIGESTS: dict[str, str] = {
    "census-open":
        "1424aff832e10bb98c46240ab14cee88b51d811ea00a8e96373bdbbf7d879538",
    "census-lossy":
        "1f89e8b6c406ee9b9cb6153aeb4e2978fa7cc285fa9c9cb0536a820461a5f437",
    "census-smtp":
        "952712ab0ea6892b91d1db9d9d1dfab2aaccc5996b4b76b99bc8dfc58b980524",
    "fold-export":
        "f693ade77d2d152c71ef271385b90a0aafc6e0d199daff67305da6255e100feb",
}


def census_kwargs(name: str, seed: int, out_dir: str,
                  count: Optional[int] = None) -> dict[str, Any]:
    """The ``run_census`` arguments of workload ``name``."""
    from repro.study.census import iter_specs
    from repro.study.internet import WorldConfig

    workload = WORKLOADS[name]
    count = workload.count if count is None else count
    kwargs: dict[str, Any] = {"workers": 0, "out_dir": out_dir}
    if workload.simulate:
        kwargs.update(population=workload.population, count=count,
                      seed=seed, simulate=True)
        return kwargs
    population_seed, world_seed = (
        (seed, PINNED_SEED) if workload.seed_draws == "population"
        else (PINNED_SEED, seed))
    kwargs.update(
        specs=list(iter_specs(workload.population, count,
                              seed=population_seed, **workload.caps)),
        seed=world_seed, stream=True, config=WorldConfig(**workload.world))
    return kwargs


def run_workload(name: str, seed: int, out_dir: str,
                 count: Optional[int] = None,
                 tracer: Any = None) -> tuple[Any, dict[str, Any]]:
    """Run one census; return its ``CensusResult`` and a JSON-safe record.

    With a :class:`spans.Tracer` the census runs with the span points
    installed, inside the root span.
    """
    from repro.study.census import run_census

    kwargs = census_kwargs(name, seed, out_dir, count)
    if tracer is None:
        t_enter = time.monotonic()
        result = run_census(**kwargs)
        t_return = time.monotonic()
    else:
        tracer.install()
        try:
            t_enter = time.monotonic()
            result = tracer.root(run_census, **kwargs)
            t_return = time.monotonic()
        finally:
            tracer.uninstall()
    record: dict[str, Any] = {
        "t_enter": t_enter,
        "t_return": t_return,
        "rows": result.aggregates.rows,
    }
    perf = result.perf
    if perf is not None:
        record.update(
            queries_sent=perf.queries_sent,
            fused_probes=perf.fused_probes,
            fallback_probes=perf.fallback_probes,
            messages_sent=perf.stats.messages_sent,
            retransmissions=perf.stats.retransmissions,
            timeouts=perf.stats.timeouts,
            faults_injected=perf.stats.faults_injected,
        )
    return result, record


def check_export(out_dir: str) -> dict[str, Any]:
    """Read a census export back through the verifying reader."""
    from repro.study.export import read_census_lines, read_census_manifest

    manifest = read_census_manifest(out_dir)
    digest = hashlib.sha256()
    rows = miscounts = 0
    techniques: Counter[str] = Counter()
    for line in read_census_lines(out_dir, verify=True):
        digest.update(line.encode("utf-8") + b"\n")
        row = json.loads(line)
        rows += 1
        miscounts += row["measured_caches"] != row["true_caches"]
        techniques[row["technique"]] += 1
    return {
        "complete": manifest["complete"],
        "rows": rows,
        "rows_sha256": digest.hexdigest(),
        "miscounts": miscounts,
        "techniques": dict(techniques),
    }


def export_size(out_dir: str) -> dict[str, int]:
    """Bytes and chunk files of a finished export."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as f:
        chunks = json.load(f)["chunks"]
    return {
        "bytes": sum(os.path.getsize(os.path.join(out_dir, chunk["name"]))
                     for chunk in chunks),
        "chunks": len(chunks),
    }


def shape_errors(name: str, record: dict[str, Any],
                 check: dict[str, Any]) -> list[str]:
    """What the workload's own shape requires of one run."""
    errors = []
    if name == "census-open" and record["fallback_probes"] != 0:
        errors.append(f"{record['fallback_probes']} probes left the fused "
                      "corridor")
    if name == "census-lossy":
        if record["fused_probes"] != 0:
            errors.append(f"{record['fused_probes']} probes were fused")
        if record["faults_injected"] == 0:
            errors.append("no faults were injected")
    if name == "census-smtp" and check["techniques"] != {
            "smtp": check["rows"]}:
        errors.append(f"techniques {check['techniques']} are not all smtp")
    return errors


def _main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "check":
        out_dir, result_path = argv[1:3]
        payload = check_export(out_dir)
    elif mode == "run":
        name, seed, out_dir, result_path, trace = argv[1:6]
        tracer = None
        if trace == "1":
            from spans import Tracer

            tracer = Tracer()
        result, payload = run_workload(name, int(seed), out_dir,
                                       tracer=tracer)
        if tracer is not None:
            from spans import layer_metrics

            payload["layers"] = layer_metrics(tracer, result,
                                              export_size(out_dir))
            payload["layer_self"] = tracer.layer_self()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    # ``result`` is released when this frame ends and the worlds behind it
    # when the interpreter exits: both count as teardown.
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
