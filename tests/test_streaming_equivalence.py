"""Streamed census == in-memory census, byte for byte.

The streaming pipeline's contract (see :mod:`repro.study.census`) is that
turning ``stream`` on, changing the worker count, or interrupting and
resuming may change *scheduling only*: the NDJSON export bytes and the
aggregate report are identical in every mode.  These tests pin that
contract end to end — rows through the real engine, folds through
:class:`CensusAggregates`, bytes through :class:`CensusWriter`.  Resume
is pinned after a clean stop between chunks, after the ``max_rss_mb``
guard fires, and after a crash injected inside a chunk flush.
"""

from __future__ import annotations

import os

import pytest

from repro.study import (
    MeasurementBudget,
    MemoryBudgetExceeded,
    WorldConfig,
    generate_population,
    run_census,
    read_census_lines,
    read_census_manifest,
    read_census_rows,
    stream_parallel_measurement,
)
import repro.study.export as export
from repro.study.export import MANIFEST_NAME, CensusWriter

FAST_BUDGET = MeasurementBudget(confidence=0.9, max_enumeration_queries=96,
                                egress_probe_factor=2.0, min_egress_probes=8,
                                max_egress_probes=32)
CAPS = dict(max_caches=4, max_ingress=2, max_egress=4)
N_SPECS = 6
N_SHARDS = 3
SEED = 7
#: The meta run_census stamps into the manifest for the specs above — a
#: crash-simulating writer must match it or resume (rightly) refuses.
CENSUS_META = {"seed": SEED, "population": "open-resolvers",
               "count": N_SPECS, "simulate": False}


def _specs():
    return generate_population("open-resolvers", N_SPECS, seed=SEED, **CAPS)


def _census(tmp_path, name, **kwargs):
    out = os.path.join(str(tmp_path), name)
    result = run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                        budget=FAST_BUDGET, out_dir=out, chunk_size=4,
                        **kwargs)
    return result, list(read_census_lines(out))


class TestStreamEqualsInMemory:
    @pytest.mark.parametrize("fault_profile", ["none", "loss-default"])
    def test_bytes_and_aggregates_identical(self, tmp_path, fault_profile):
        config = WorldConfig(seed=SEED, fault_profile=fault_profile)
        baseline, base_lines = _census(
            tmp_path, f"mem-{fault_profile}", config=config)
        assert base_lines, "baseline census produced no rows"
        for workers in (0, 1, 4):
            streamed, lines = _census(
                tmp_path, f"stream-{fault_profile}-w{workers}",
                config=config, stream=True, workers=workers)
            assert lines == base_lines, (
                f"workers={workers} fault={fault_profile}: "
                f"streamed NDJSON diverged from the in-memory bytes")
            assert streamed.aggregates.to_dict() == \
                baseline.aggregates.to_dict()

    def test_forced_pool_stream_matches(self, tmp_path):
        baseline, base_lines = _census(tmp_path, "mem-pool")
        streamed, lines = _census(tmp_path, "stream-pool", stream=True,
                                  workers=2, force_pool=True)
        assert lines == base_lines
        assert streamed.aggregates.to_dict() == baseline.aggregates.to_dict()

    def test_stream_rows_match_run_parallel(self):
        """The streamed rows equal the rows a row-keeping census lists."""
        specs = _specs()
        reference = run_census(specs=specs, seed=SEED, n_shards=N_SHARDS,
                               budget=FAST_BUDGET)
        streamed = list(stream_parallel_measurement(
            specs, base_seed=SEED, n_shards=N_SHARDS, budget=FAST_BUDGET))
        assert streamed == reference.rows


class TestResume:
    def test_kill_and_resume_reproduces_bytes(self, tmp_path):
        uninterrupted = os.path.join(str(tmp_path), "full")
        run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                   budget=FAST_BUDGET, stream=True, out_dir=uninterrupted,
                   chunk_size=2)
        expected = list(read_census_lines(uninterrupted))

        # Simulate a crash: write only the first four rows (two durable
        # chunks), leaving the manifest incomplete.
        crashed = os.path.join(str(tmp_path), "crashed")
        specs = _specs()
        partial = stream_parallel_measurement(
            specs, base_seed=SEED, n_shards=N_SHARDS, budget=FAST_BUDGET)
        writer = CensusWriter(crashed, chunk_size=2, meta=CENSUS_META)
        for i, row in enumerate(partial):
            if i == 4:
                break
            writer.write_row(row)
        # No writer.close(): the manifest stays incomplete on purpose.
        assert not read_census_manifest(crashed)["complete"]

        resumed = run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                             budget=FAST_BUDGET, stream=True,
                             out_dir=crashed, chunk_size=2, resume=True)
        assert resumed.skipped_rows == 4
        assert resumed.written_rows == N_SPECS - 4
        assert list(read_census_lines(crashed)) == expected
        assert read_census_manifest(crashed)["complete"]

    def test_resume_aggregates_cover_all_rows(self, tmp_path):
        # The fold replays the full stream even when the writer skips the
        # durable prefix — aggregates always describe the whole census.
        out = os.path.join(str(tmp_path), "census")
        specs = _specs()
        rows = stream_parallel_measurement(
            specs, base_seed=SEED, n_shards=N_SHARDS, budget=FAST_BUDGET)
        writer = CensusWriter(out, chunk_size=2, meta=CENSUS_META)
        for i, row in enumerate(rows):
            if i == 2:
                break
            writer.write_row(row)
        resumed = run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                             budget=FAST_BUDGET, stream=True, out_dir=out,
                             chunk_size=2, resume=True)
        assert resumed.aggregates.rows == N_SPECS
        parsed = list(read_census_rows(out, require_complete=True))
        assert len(parsed) == N_SPECS

    def test_resume_meta_mismatch_names_the_differing_keys(self, tmp_path):
        """The mismatch error pinpoints exactly what differs, per key.

        An operator resuming with the wrong flags needs to know *which*
        knob disagrees with the checkpoint — not eyeball two full meta
        dicts.  Matching keys must stay out of the message.
        """
        out = os.path.join(str(tmp_path), "mismatch")
        writer = CensusWriter(out, chunk_size=2, meta=CENSUS_META)
        rows = stream_parallel_measurement(
            _specs(), base_seed=SEED, n_shards=N_SHARDS, budget=FAST_BUDGET)
        writer.write_row(next(iter(rows)))

        requested = dict(CENSUS_META)
        requested["seed"] = SEED + 1          # differing value
        del requested["simulate"]             # key only in the manifest
        requested["workers"] = 4              # key only in the request
        resumer = CensusWriter(out, chunk_size=2, meta=requested,
                               resume=True)
        with pytest.raises(ValueError) as excinfo:
            resumer.write_dict({"x": 1})
        message = str(excinfo.value)
        assert f"seed: manifest {SEED!r} != requested {SEED + 1!r}" in message
        assert "simulate: manifest False != requested <absent>" in message
        assert "workers: manifest <absent> != requested 4" in message
        # Keys that agree are not noise in the error.
        assert "population" not in message
        assert "count" not in message

    def test_resume_rejects_completed_census(self, tmp_path):
        out = os.path.join(str(tmp_path), "done")
        run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                   budget=FAST_BUDGET, out_dir=out)
        with pytest.raises(ValueError, match="complete"):
            run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                       budget=FAST_BUDGET, out_dir=out, resume=True)

    def test_memory_guard_stops_after_first_chunk_then_resumes(
            self, tmp_path):
        """``max_rss_mb`` raises at the first durable chunk; resume without
        the guard reproduces the uninterrupted bytes."""
        expected = _uninterrupted_lines(tmp_path)
        out = os.path.join(str(tmp_path), "guarded")
        with pytest.raises(MemoryBudgetExceeded, match="--max-rss-mb"):
            run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                       budget=FAST_BUDGET, stream=True, out_dir=out,
                       chunk_size=2, max_rss_mb=1.0)
        manifest = read_census_manifest(out)
        assert not manifest["complete"]
        assert [chunk["name"] for chunk in manifest["chunks"]] == \
            ["chunk-00000.ndjson"]

        resumed = run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                             budget=FAST_BUDGET, stream=True, out_dir=out,
                             chunk_size=2, resume=True)
        assert resumed.skipped_rows == 2
        assert list(read_census_lines(out)) == expected
        _assert_only_recorded_files(out)


def _uninterrupted_lines(tmp_path):
    out = os.path.join(str(tmp_path), "uninterrupted")
    run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
               budget=FAST_BUDGET, stream=True, out_dir=out, chunk_size=2)
    return list(read_census_lines(out))


def _assert_only_recorded_files(out):
    """No ``.part`` file and no chunk the manifest does not record."""
    recorded = {chunk["name"] for chunk in read_census_manifest(out)["chunks"]}
    on_disk = set(os.listdir(out)) - {MANIFEST_NAME}
    assert on_disk == recorded, sorted(on_disk ^ recorded)


class _InjectedCrash(Exception):
    """The failure a test injects into a chunk flush."""


#: The chunk whose flush crashes; chunk 0 is already durable by then.
CRASHED_CHUNK = "chunk-00001.ndjson"


class _TornHandle:
    """A chunk ``.part`` handle that writes half its blob, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        return False

    def write(self, blob):
        self._handle.write(blob[:len(blob) // 2])
        raise _InjectedCrash("torn .part write")


class _FailingOs:
    """``os`` for :mod:`repro.study.export`, whose ``replace`` fails once
    ``fails(src, dst)`` holds."""

    def __init__(self, fails):
        self._fails = fails

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        if self._fails(src, dst):
            raise _InjectedCrash(f"crash before {src} -> {dst}")
        os.replace(src, dst)


def _inject(monkeypatch, stage, out):
    """Make :meth:`CensusWriter._flush_chunk` of ``CRASHED_CHUNK`` fail."""
    chunk = os.path.join(out, CRASHED_CHUNK)
    if stage == "during-part-write":
        def torn_open(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            return _TornHandle(handle) if path == chunk + ".part" else handle
        monkeypatch.setattr(export, "open", torn_open, raising=False)
    elif stage == "before-rename":
        monkeypatch.setattr(export, "os", _FailingOs(
            lambda src, dst: dst == chunk))
    else:   # between the chunk rename and the manifest update
        monkeypatch.setattr(export, "os", _FailingOs(
            lambda src, dst: dst.endswith(MANIFEST_NAME)
            and os.path.exists(chunk)))


class TestCrashInsideChunkWrite:
    """A crash inside one chunk flush never leaves a torn chunk behind:
    resume deletes the stray files and reproduces the bytes."""

    @pytest.mark.parametrize("stage", [
        "during-part-write", "before-rename", "before-manifest-update"])
    def test_resume_reproduces_bytes(self, tmp_path, monkeypatch, stage):
        expected = _uninterrupted_lines(tmp_path)
        out = os.path.join(str(tmp_path), stage)
        with monkeypatch.context() as patch:
            _inject(patch, stage, out)
            with pytest.raises(_InjectedCrash):
                run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                           budget=FAST_BUDGET, stream=True, out_dir=out,
                           chunk_size=2)
        manifest = read_census_manifest(out)
        assert not manifest["complete"]
        assert [chunk["name"] for chunk in manifest["chunks"]] == \
            ["chunk-00000.ndjson"]
        leftovers = set(os.listdir(out))
        if stage == "before-manifest-update":
            assert CRASHED_CHUNK in leftovers
        else:   # the torn or unrenamed chunk never reached its final name
            assert CRASHED_CHUNK + ".part" in leftovers
            assert CRASHED_CHUNK not in leftovers

        resumed = run_census(specs=_specs(), seed=SEED, n_shards=N_SHARDS,
                             budget=FAST_BUDGET, stream=True, out_dir=out,
                             chunk_size=2, resume=True)
        assert resumed.skipped_rows == 2
        assert list(read_census_lines(out)) == expected
        _assert_only_recorded_files(out)


class TestFiguresOnStreamedCensus:
    def test_export_accepts_generator_input(self):
        """measurements_to_dict consumes any iterable, not only lists."""
        from repro.study import measurements_to_dict

        specs = _specs()
        streamed = stream_parallel_measurement(
            specs, base_seed=SEED, n_shards=N_SHARDS, budget=FAST_BUDGET)
        exported = measurements_to_dict(streamed)   # generator, not a list
        assert len(exported) == N_SPECS

        rows = list(stream_parallel_measurement(
            specs, base_seed=SEED, n_shards=N_SHARDS, budget=FAST_BUDGET))
        assert exported == measurements_to_dict(iter(rows))

    def test_figures_run_on_streamed_census(self, tmp_path):
        """Figure builders read a streamed census's aggregates."""
        from repro.study.figures import FigureData

        census, lines = _census(tmp_path, "figures", stream=True)
        data = FigureData(aggregates={"open-resolvers": census.aggregates})
        assert len(data.cache_series()["open-resolvers"]) == N_SPECS
        assert len(data.egress_series()["open-resolvers"]) == N_SPECS
        assert sum(data.bubbles("open-resolvers").values()) == N_SPECS
        breakdown = data.ratio_breakdowns()["open-resolvers"]
        assert sum(breakdown.as_dict().values()) == pytest.approx(1.0)
        assert len(lines) == N_SPECS
