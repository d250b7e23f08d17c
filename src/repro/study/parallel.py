"""Sharded, deterministic, parallel population measurement (the engine).

The paper's evaluation measures whole populations of resolution platforms;
:func:`~repro.study.measurement.measure_population` walks them one by one
in a single process against one shared :class:`SimulatedInternet`.  This
module scales that sweep out while keeping the seeded determinism promised
in DESIGN.md §6:

1. **Plan** — the population's :class:`PlatformSpec` list is partitioned
   into a fixed number of *shards* (striped round-robin, so the heavy tail
   of giant platforms spreads evenly).  The shard plan depends only on
   ``(specs, base_seed, n_shards)`` — never on the worker count.
2. **Seed** — each shard gets its own independent world, built from a seed
   derived as ``derive_seed(base_seed, "shard/<index>")`` via
   :mod:`repro.net.rng` — the toolkit's one seed-derivation scheme.
3. **Run** — shards run through the pipelined
   :class:`~repro.study.engine.ShardLane` turn machinery: in-process on the
   interleaving :class:`~repro.study.engine.PipelinedEngine`, or on a
   :class:`concurrent.futures.ProcessPoolExecutor` when
   :func:`resolve_workers` decides a pool actually pays for itself
   (``workers="auto"`` sizes the pool from ``os.cpu_count()``; the handoff
   ships compact pre-serialized spec tuples, never live worlds).
4. **Merge** — per-platform rows return to the *original spec order*, so
   results are bit-identical regardless of worker count: the worker pool
   only changes scheduling, never what any shard computes.

Each shard also reports a :class:`~repro.net.perf.ShardPerf` sample; the
merged :class:`~repro.net.perf.PerfCounters` carries wall time, aggregated
network stats and queries/second into reports, JSON export and the scaling
benches.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import astuple, dataclass, replace
from typing import Iterator, Optional, Union

from ..net.perf import PerfCounters
from ..net.rng import derive_seed
from .internet import WorldConfig
from .measurement import MeasurementBudget, PlatformMeasurement
from .population import PlatformSpec

#: Default shard count.  Fixed (not derived from the worker count!) so the
#: same plan — and therefore the same measured rows — comes out whether the
#: shards run on 0, 1 or 16 workers.
DEFAULT_SHARDS = 8

#: Fewest platforms one pool worker must be handed before the pool's fixed
#: costs (process spawn, interpreter + package import, payload pickling)
#: can pay for themselves.  Measured on the scaling bench: worker startup
#: costs ~100 ms against ~1.5 ms of engine work per platform.
MIN_PLATFORMS_PER_WORKER = 64

#: ``workers=`` accepts an explicit count or ``"auto"``.
WorkerSpec = Union[int, str]


def shard_seed(base_seed: int, shard_index: int) -> int:
    """The world seed of shard ``shard_index`` under ``base_seed``."""
    return derive_seed(base_seed, f"shard/{shard_index}")


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to measure its shard (picklable)."""

    shard_index: int
    seed: int
    positions: tuple[int, ...]          # indices into the original spec list
    specs: tuple[PlatformSpec, ...]
    config: WorldConfig                 # template; ``seed`` already applied
    budget: MeasurementBudget


@dataclass
class ShardOutcome:
    """One shard's measured rows plus its performance sample."""

    shard_index: int
    positions: tuple[int, ...]
    rows: list[PlatformMeasurement]
    perf: ShardPerf


@dataclass
class ParallelMeasurement:
    """Merged result of a sharded population sweep."""

    rows: list[PlatformMeasurement]
    perf: PerfCounters
    n_shards: int = 0
    base_seed: int = 0

    @property
    def shard_rows(self) -> int:
        return sum(shard.platforms for shard in self.perf.shards)


def plan_shards(specs: list[PlatformSpec], base_seed: int = 0,
                n_shards: Optional[int] = None,
                config: Optional[WorldConfig] = None,
                budget: Optional[MeasurementBudget] = None) -> list[ShardTask]:
    """Deterministic shard plan for ``specs`` under ``base_seed``.

    Striped assignment: spec ``i`` goes to shard ``i % n_shards``.  The
    heavy platforms of a population draw are scattered through the list,
    so striping balances shard work without inspecting the specs (which
    would couple the plan to ground truth the measurement must not use).
    """
    config = config or WorldConfig(seed=base_seed)
    budget = budget or MeasurementBudget()
    count = n_shards if n_shards is not None else DEFAULT_SHARDS
    count = max(1, min(count, len(specs)) if specs else 1)
    buckets: list[list[int]] = [[] for _ in range(count)]
    for position in range(len(specs)):
        buckets[position % count].append(position)
    tasks = []
    for index, bucket in enumerate(buckets):
        if not bucket:
            continue
        tasks.append(ShardTask(
            shard_index=index,
            seed=shard_seed(base_seed, index),
            positions=tuple(bucket),
            specs=tuple(specs[position] for position in bucket),
            config=replace(config, seed=shard_seed(base_seed, index)),
            budget=budget,
        ))
    return tasks


def run_shard(task: ShardTask) -> ShardOutcome:
    """Measure one shard in a fresh world (module-level: picklable)."""
    from .engine import ShardLane     # lazy: the engine imports this module

    return ShardLane(task).run_to_completion()


def _encode_task(task: ShardTask) -> bytes:
    """The compact pool handoff: one pickle of primitive tuples.

    Specs, config and budget are flat dataclasses of primitives; shipping
    their field tuples instead of the dataclass instances keeps the
    payload a fraction of the naive pickle (no per-object class references
    to resolve) and guarantees nothing heavier — a world, a network — can
    ride along by accident.
    """
    return pickle.dumps(
        (task.shard_index, task.seed, task.positions,
         tuple(astuple(spec) for spec in task.specs),
         astuple(task.config), astuple(task.budget)),
        protocol=pickle.HIGHEST_PROTOCOL)


def _decode_task(payload: bytes) -> ShardTask:
    """Rebuild the :class:`ShardTask` from its compact pool handoff."""
    shard_index, seed, positions, spec_rows, config_row, budget_row = (
        pickle.loads(payload))
    return ShardTask(
        shard_index=shard_index,
        seed=seed,
        positions=tuple(positions),
        specs=tuple(PlatformSpec(*row) for row in spec_rows),
        config=WorldConfig(*config_row),
        budget=MeasurementBudget(*budget_row),
    )


def _run_shard_spill(handoff: tuple[bytes, str]) -> ShardOutcome:
    """Pool entry point for streaming: rows spill to disk as they finish.

    The worker never holds more than one lane-batch of rows: every finished
    row is pickled to the shard's spill file immediately, and the returned
    :class:`ShardOutcome` carries only the perf sample (``rows`` empty).
    The parent re-reads the spill files one row at a time in stripe order,
    so parent *and* worker memory stay bounded regardless of census size.
    """
    from .engine import ShardLane     # lazy: the engine imports this module

    payload, spill_path = handoff
    lane = ShardLane(_decode_task(payload))
    with open(spill_path, "wb") as sink:
        more = True
        while more:
            more = lane.step()
            for row in lane.drain_rows():
                pickle.dump(row, sink, protocol=pickle.HIGHEST_PROTOCOL)
    return lane.outcome()


def resolve_workers(workers: WorkerSpec, n_tasks: int, n_platforms: int,
                    force_pool: bool = False) -> int:
    """Actual pool size for a requested ``workers`` setting (0: in-process).

    ``"auto"`` starts from ``os.cpu_count()``; explicit counts are taken
    as upper bounds, never promises.  The heuristic sends work to a pool
    only when it can win: at least two effective workers (capped by CPUs
    and shard count) and at least :data:`MIN_PLATFORMS_PER_WORKER`
    platforms of work per worker to amortize the measured startup +
    handoff cost.  Everything else runs on the in-process pipelined
    engine, which beats the old sequential shard loop at every size.
    ``force_pool`` skips the heuristic (tests use it to exercise real
    worker pools regardless of the machine).
    """
    if workers == "auto":
        requested = os.cpu_count() or 1
    elif isinstance(workers, int):
        if workers < 0:
            raise ValueError("workers must be >= 0 or 'auto'")
        requested = workers
    else:
        raise ValueError(f"workers must be an int or 'auto': {workers!r}")
    if force_pool and requested > 0:
        return max(1, min(requested, n_tasks))
    effective = min(requested, os.cpu_count() or 1, n_tasks)
    if effective < 2:
        return 0
    if n_platforms < effective * MIN_PLATFORMS_PER_WORKER:
        effective = n_platforms // MIN_PLATFORMS_PER_WORKER
        if effective < 2:
            return 0
    return effective


@dataclass
class StreamingMeasurement:
    """A streamed population sweep: iterate the rows, then read ``perf``.

    Iterating yields :class:`PlatformMeasurement` rows in original spec
    order without ever materializing the full list.  ``perf`` is populated
    once the iterator is exhausted (``None`` before that — the shards are
    still running).
    """

    n_shards: int
    base_seed: int
    total: int
    perf: Optional[PerfCounters] = None
    _iterator: Optional[Iterator[PlatformMeasurement]] = None

    def __iter__(self) -> Iterator[PlatformMeasurement]:
        if self._iterator is None:
            raise RuntimeError("stream not attached")
        return self._iterator


def _merge_spilled(tasks: list[ShardTask], paths: list[str]
                   ) -> Iterator[PlatformMeasurement]:
    """Reassemble spilled shard rows in global spec order, one at a time."""
    files = [open(path, "rb") for path in paths]
    try:
        readers = [pickle.Unpickler(handle) for handle in files]
        taken = [0] * len(tasks)
        total = sum(len(task.positions) for task in tasks)
        for frontier in range(total):
            for index, task in enumerate(tasks):
                if taken[index] < len(task.positions) and \
                        task.positions[taken[index]] == frontier:
                    try:
                        row = readers[index].load()
                    except EOFError as exc:
                        raise RuntimeError(
                            f"shard {task.shard_index} spill ended early "
                            f"at position {frontier}") from exc
                    taken[index] += 1
                    assert isinstance(row, PlatformMeasurement)
                    yield row
                    break
            else:
                raise RuntimeError(
                    f"shard plan lost spec at position {frontier}")
    finally:
        for handle in files:
            handle.close()


def stream_parallel_measurement(specs: list[PlatformSpec],
                                base_seed: int = 0,
                                workers: WorkerSpec = 0,
                                n_shards: Optional[int] = None,
                                config: Optional[WorldConfig] = None,
                                budget: Optional[MeasurementBudget] = None,
                                force_pool: bool = False,
                                spill_dir: Optional[str] = None
                                ) -> StreamingMeasurement:
    """Measure a population as a bounded-memory stream of rows.

    Rows arrive in spec order and are identical at every worker count for
    a given ``(specs, base_seed, n_shards)``, yet no layer ever holds the
    whole census:

    * in-process, :meth:`PipelinedEngine.stream` delivers rows at the
      stripe frontier with a constant per-lane buffer bound;
    * on a pool, workers spill finished rows to per-shard files
      (:func:`_run_shard_spill`) and the parent re-reads them one row at a
      time in stripe order (``spill_dir`` picks where; default the system
      temp dir).
    """
    tasks = plan_shards(specs, base_seed=base_seed, n_shards=n_shards,
                        config=config, budget=budget)
    pool_size = resolve_workers(workers, len(tasks), len(specs),
                                force_pool=force_pool)
    result = StreamingMeasurement(n_shards=len(tasks), base_seed=base_seed,
                                  total=len(specs))

    def _stream() -> Iterator[PlatformMeasurement]:
        started = time.perf_counter()
        perf = PerfCounters(workers=pool_size)
        if pool_size == 0 or len(tasks) <= 1:
            from .engine import PipelinedEngine   # lazy: engine imports us

            engine = PipelinedEngine(tasks)
            expected = 0
            # ``engine.stream`` is the lane scheduler (itself a shard
            # entry), not a world RNG stream.
            for position, row in engine.stream():  # cdelint: disable=CDE011
                if position != expected:
                    raise RuntimeError(
                        f"stream out of order: got position {position}, "
                        f"expected {expected}")
                expected += 1
                yield row
            outcomes = engine.outcomes()
        else:
            # Only the pool branch pays for concurrent.futures and
            # multiprocessing; an in-process census never loads them.
            from concurrent.futures import ProcessPoolExecutor

            spill = tempfile.TemporaryDirectory(prefix="census-spill-",
                                                dir=spill_dir)
            try:
                handoffs = [
                    (_encode_task(task),
                     os.path.join(spill.name,
                                  f"shard-{task.shard_index:05d}.rows"))
                    for task in tasks]
                with ProcessPoolExecutor(max_workers=pool_size) as pool:
                    outcomes = list(pool.map(_run_shard_spill, handoffs))
                yield from _merge_spilled(tasks,
                                          [path for _, path in handoffs])
            finally:
                spill.cleanup()
        for outcome in sorted(outcomes, key=lambda o: o.shard_index):
            perf.add_shard(outcome.perf)
        perf.wall_seconds = time.perf_counter() - started
        result.perf = perf

    result._iterator = _stream()
    return result


def run_parallel_measurement(specs: list[PlatformSpec],
                             base_seed: int = 0,
                             workers: WorkerSpec = 0,
                             n_shards: Optional[int] = None,
                             config: Optional[WorldConfig] = None,
                             budget: Optional[MeasurementBudget] = None,
                             force_pool: bool = False
                             ) -> ParallelMeasurement:
    """:func:`stream_parallel_measurement`, collected into one list.

    ``workers`` is an explicit process count or ``"auto"``;
    :func:`resolve_workers` decides whether a real pool can beat the
    in-process pipelined engine and sizes it.  Every setting produces
    identical rows for a given ``(specs, base_seed, n_shards)`` — the
    recorded ``perf.workers`` is the resolved pool size actually used.
    """
    streamed = stream_parallel_measurement(
        specs, base_seed=base_seed, workers=workers, n_shards=n_shards,
        config=config, budget=budget, force_pool=force_pool)
    rows = list(streamed)
    assert streamed.perf is not None
    return ParallelMeasurement(rows=rows, perf=streamed.perf,
                               n_shards=streamed.n_shards,
                               base_seed=base_seed)

