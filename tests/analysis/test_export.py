"""Tests for CSV/JSON exports."""

import csv
import io
import json

import numpy as np
import pytest

from repro.analysis.export import export_figure, figure_to_json, table_to_csv
from repro.analysis.tables import TextTable
from repro.experiments.common import FigureResult


@pytest.fixture
def figure():
    table = TextTable("A table", ["algorithm", "value"])
    table.add_row(["Copy-on-Update", "1.2 ms"])
    table.add_row(["Naive-Snapshot", "0.9 ms"])
    return FigureResult(
        experiment_id="demo",
        description="A demo figure",
        tables=[table],
        raw={"metric": np.float64(1.5), "nested": {64_000: [1, 2]}},
    )


class TestTableToCsv:
    def test_header_and_rows(self, figure):
        parsed = list(csv.reader(io.StringIO(table_to_csv(figure.tables[0]))))
        assert parsed[0] == ["algorithm", "value"]
        assert parsed[1] == ["Copy-on-Update", "1.2 ms"]
        assert len(parsed) == 3

    def test_commas_escaped(self):
        table = TextTable("T", ["a"])
        table.add_row(["1,000"])
        parsed = list(csv.reader(io.StringIO(table_to_csv(table))))
        assert parsed[1] == ["1,000"]


class TestFigureToJson:
    def test_round_trips_through_json(self, figure):
        document = json.loads(figure_to_json(figure))
        assert document["experiment_id"] == "demo"
        assert document["raw"]["metric"] == 1.5
        assert document["raw"]["nested"]["64000"] == [1, 2]
        assert document["tables"][0]["title"] == "A table"

    def test_numpy_scalars_sanitized(self, figure):
        text = figure_to_json(figure)
        assert "float64" not in text


class TestExportFigure:
    def test_writes_json_and_csv(self, figure, tmp_path):
        paths = export_figure(figure, tmp_path)
        assert len(paths) == 2
        assert (tmp_path / "demo.json").exists()
        assert (tmp_path / "demo_table0.csv").exists()

    def test_cli_export_flag(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--quick", "--export-dir", str(tmp_path)]) == 0
        assert (tmp_path / "table1.json").exists()
        assert (tmp_path / "table1_table0.csv").exists()
