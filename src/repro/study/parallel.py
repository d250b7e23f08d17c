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
3. **Run** — each shard is a :class:`~repro.study.engine.ShardLane` whose
   ``step`` measures one platform.  In-process, the stream steps
   whichever lane owns the next spec position; on a
   :class:`concurrent.futures.ProcessPoolExecutor` — when
   :func:`resolve_workers` decides a pool actually pays for itself
   (``workers="auto"`` sizes the pool from ``os.cpu_count()``) — each
   worker runs :func:`run_shard` on a :class:`ShardTask` pickled as it
   is: flat dataclasses of primitives, never live worlds.
4. **Merge** — per-platform rows return to the *original spec order*
   through one reassembler, :func:`_in_stripe_order`, whether the rows
   come from in-process lane steps or from pool spill files, so results
   are bit-identical regardless of worker count: the worker pool only
   changes scheduling, never what any shard computes.

Each shard also reports a :class:`~repro.net.perf.ShardPerf` sample; the
merged :class:`~repro.net.perf.PerfCounters` carries wall time, aggregated
network stats and queries/second into reports, JSON export and the scaling
benches.
"""

from __future__ import annotations

import heapq
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from typing import Callable, Iterator, Optional, Union

from ..net.perf import PerfCounters, ShardPerf
from ..net.rng import derive_seed
from .engine import ShardLane
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
    positions: tuple[int, ...]          # indices into the original spec list
    specs: tuple[PlatformSpec, ...]
    config: WorldConfig                 # the shard's world, its seed applied
    budget: MeasurementBudget


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
            positions=tuple(bucket),
            specs=tuple(specs[position] for position in bucket),
            config=replace(config, seed=shard_seed(base_seed, index)),
            budget=budget,
        ))
    return tasks


def run_shard(task: ShardTask,
              emit: Callable[[PlatformMeasurement], object]) -> ShardPerf:
    """Measure one shard in a fresh world, handing each row to ``emit``.

    The one loop that drives a lane to completion: a pool worker's
    ``emit`` pickles each row to the shard's spill file (:func:`_spill`),
    so the worker never holds more than one row; ``rows.append`` collects
    them.
    """
    lane = ShardLane(task)
    while (row := lane.step()) is not None:
        emit(row)
    return lane.perf()


def _spill(task: ShardTask, path: str) -> ShardPerf:
    """Pool entry point: :func:`run_shard` with every row spilled to
    ``path``, which the parent re-reads one row at a time in stripe
    order."""
    with open(path, "wb") as sink:
        return run_shard(task, partial(pickle.dump, file=sink,
                                       protocol=pickle.HIGHEST_PROTOCOL))


def resolve_workers(workers: WorkerSpec, n_tasks: int, n_platforms: int,
                    force_pool: bool = False) -> int:
    """Actual pool size for a requested ``workers`` setting (0: in-process).

    ``"auto"`` starts from ``os.cpu_count()``; explicit counts are taken
    as upper bounds, never promises.  The heuristic sends work to a pool
    only when it can win: at least two effective workers (capped by CPUs
    and shard count) and at least :data:`MIN_PLATFORMS_PER_WORKER`
    platforms of work per worker to amortize the measured startup +
    handoff cost.  Everything else runs in-process.
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
    perf: Optional[PerfCounters] = None
    _iterator: Optional[Iterator[PlatformMeasurement]] = None

    def __iter__(self) -> Iterator[PlatformMeasurement]:
        if self._iterator is None:
            raise RuntimeError("stream not attached")
        return self._iterator


def _in_stripe_order(tasks: list[ShardTask],
                     next_row: Callable[[int], Optional[PlatformMeasurement]]
                     ) -> Iterator[PlatformMeasurement]:
    """Reassemble the shards' rows in global spec order, one at a time.

    Each shard yields its rows in its own ``positions`` order, so merging
    the tasks' positions names the shard that owns every next spec;
    ``next_row(i)`` takes the next row of ``tasks[i]`` (``None`` when that
    shard has none left).
    """
    owners = heapq.merge(*(zip(task.positions, repeat(index))
                           for index, task in enumerate(tasks)))
    for expected, (position, index) in enumerate(owners):
        if position != expected:
            raise RuntimeError(
                f"shard plan lost spec at position {expected}")
        row = next_row(index)
        if row is None:
            raise RuntimeError(
                f"shard {tasks[index].shard_index} ended early at "
                f"position {position}")
        yield row


def _merge_spilled(tasks: list[ShardTask], paths: list[str]
                   ) -> Iterator[PlatformMeasurement]:
    """Reassemble spilled shard rows in global spec order, one at a time."""
    files = [open(path, "rb") for path in paths]
    try:
        readers = [pickle.Unpickler(handle) for handle in files]

        def load(index: int) -> Optional[PlatformMeasurement]:
            try:
                row = readers[index].load()
            except EOFError:
                return None
            assert isinstance(row, PlatformMeasurement)
            return row

        yield from _in_stripe_order(tasks, load)
    finally:
        for handle in files:
            handle.close()


def stream_parallel_measurement(specs: list[PlatformSpec],
                                base_seed: int = 0,
                                workers: WorkerSpec = 0,
                                n_shards: Optional[int] = None,
                                config: Optional[WorldConfig] = None,
                                budget: Optional[MeasurementBudget] = None,
                                force_pool: bool = False
                                ) -> StreamingMeasurement:
    """Measure a population as a bounded-memory stream of rows.

    Rows arrive in spec order and are identical at every worker count for
    a given ``(specs, base_seed, n_shards)``, yet no layer ever holds the
    whole census:

    * in-process, each row is measured when it is due: the lane that owns
      the next spec position takes one step, so no lane runs ahead;
    * on a pool, workers spill finished rows to per-shard files
      (:func:`run_shard` through :func:`_spill`) and the parent re-reads them one row at a
      time in stripe order (from a directory under the system temp dir).

    Both branches reassemble through :func:`_in_stripe_order`.
    """
    tasks = plan_shards(specs, base_seed=base_seed, n_shards=n_shards,
                        config=config, budget=budget)
    pool_size = resolve_workers(workers, len(tasks), len(specs),
                                force_pool=force_pool)
    result = StreamingMeasurement(n_shards=len(tasks))

    def _stream() -> Iterator[PlatformMeasurement]:
        started = time.perf_counter()
        perf = PerfCounters(workers=pool_size)
        if pool_size == 0 or len(tasks) <= 1:
            lanes = [ShardLane(task) for task in tasks]
            yield from _in_stripe_order(
                tasks, lambda index: lanes[index].step())
            samples = [lane.perf() for lane in lanes]
        else:
            # Only the pool branch pays for concurrent.futures and
            # multiprocessing; an in-process census never loads them.
            from concurrent.futures import ProcessPoolExecutor

            spill = tempfile.TemporaryDirectory(prefix="census-spill-")
            try:
                paths = [os.path.join(spill.name,
                                      f"shard-{task.shard_index:05d}.rows")
                         for task in tasks]
                with ProcessPoolExecutor(max_workers=pool_size) as pool:
                    samples = list(pool.map(_spill, tasks, paths))
                yield from _merge_spilled(tasks, paths)
            finally:
                spill.cleanup()
        for sample in sorted(samples, key=lambda each: each.shard_index):
            perf.add_shard(sample)
        perf.wall_seconds = time.perf_counter() - started
        result.perf = perf

    result._iterator = _stream()
    return result
