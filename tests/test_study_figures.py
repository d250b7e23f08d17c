"""Tests for the programmatic figure builders and their exports.

Every population of :func:`regenerate_all` is one :func:`run_census`, so
the figure series are read from the census aggregates and the per-row
export is the census's own chunked NDJSON.
"""

import os
import pathlib

import pytest

from repro.study import (
    FigureData,
    MeasurementBudget,
    build_world,
    generate_population,
    read_census_manifest,
    read_census_rows,
    regenerate_all,
    run_census,
    table1_csv,
)

SEED = 71
SMALL_SIZES = {"open-resolvers": 5, "email-servers": 4, "ad-network": 4}
SMALL_CAPS = {
    "open-resolvers": dict(max_ingress=4, max_caches=3, max_egress=4),
    "email-servers": dict(max_ingress=3, max_caches=3, max_egress=5),
    "ad-network": dict(max_ingress=3, max_caches=3, max_egress=5),
}
#: The columns the per-row CSV export used to carry.
CSV_FIELDS = {"population", "name", "operator", "country", "selector",
              "n_ingress", "true_caches", "measured_caches", "true_egress",
              "measured_egress", "technique", "queries_used"}


@pytest.fixture(scope="module")
def world():
    return build_world(seed=SEED, lossy_platforms=False)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("figures"))


@pytest.fixture(scope="module")
def data(world, out_dir) -> FigureData:
    return regenerate_all(world, sizes=SMALL_SIZES, caps=SMALL_CAPS,
                          budget=MeasurementBudget(),
                          table1_domains=20, operator_draws=200, seed=SEED,
                          out_dir=out_dir)


def _files(directory):
    return {path.name: path.read_bytes()
            for path in sorted(pathlib.Path(directory).iterdir())}


class TestRegenerateAll:
    def test_all_populations_measured(self, data):
        assert set(data.aggregates) == {"open-resolvers", "email-servers",
                                        "ad-network"}
        for population, size in SMALL_SIZES.items():
            assert data.aggregates[population].rows == size
        assert data.perf is not None
        assert data.perf.platforms == sum(SMALL_SIZES.values())

    def test_series_shapes(self, data):
        egress = data.egress_series()
        caches = data.cache_series()
        for population, size in SMALL_SIZES.items():
            assert len(egress[population]) == size
            assert len(caches[population]) == size
            assert all(value >= 0 for value in egress[population])
            assert all(value >= 0 for value in caches[population])

    def test_bubbles_total(self, data):
        bubbles = data.bubbles("open-resolvers")
        assert sum(bubbles.values()) == SMALL_SIZES["open-resolvers"]

    def test_ratio_breakdowns_normalised(self, data):
        for breakdown in data.ratio_breakdowns().values():
            assert sum(breakdown.as_dict().values()) == pytest.approx(1.0)

    def test_table1_present(self, data):
        assert data.table1 is not None
        assert data.table1.domains_probed == 20
        labels = [label for label, _ in data.table1.table1_rows()]
        assert len(labels) == 6

    def test_operator_tables(self, data):
        for population, table in data.operator_tables.items():
            assert table[-1][0] == "OTHER"
            total = sum(share for _, share in table)
            assert total == pytest.approx(100.0, abs=0.5)


class TestPopulationExport:
    def test_export_rows_carry_the_csv_fields(self, data, out_dir):
        for population, size in SMALL_SIZES.items():
            directory = os.path.join(out_dir, population)
            manifest = read_census_manifest(directory)
            assert manifest["complete"]
            assert manifest["meta"]["population"] == population
            rows = list(read_census_rows(directory, require_complete=True))
            assert len(rows) == size
            for row in rows:
                assert CSV_FIELDS <= set(row)
                assert row["population"] == population

    def test_export_is_byte_identical_to_run_census(self, world, data,
                                                    out_dir, tmp_path):
        """figures == census: the same specs give the same bytes."""
        for population, size in SMALL_SIZES.items():
            specs = generate_population(population, size, seed=SEED,
                                        **SMALL_CAPS[population])
            reference = str(tmp_path / population)
            run_census(specs=specs, population=population, seed=SEED,
                       config=world.config, budget=MeasurementBudget(),
                       out_dir=reference)
            assert _files(os.path.join(out_dir, population)) == \
                _files(reference), population


class TestCsvExport:
    def test_table1_csv(self, data):
        text = table1_csv(data)
        lines = text.strip().splitlines()
        assert lines[0] == "query_type,fraction"
        assert len(lines) == 7
