"""Tests for the Table 1-5 drivers."""

import pytest

from repro.config import PAPER_HARDWARE
from repro.experiments.common import QUICK_SCALE
from repro.experiments.paper_tables import (
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)


class TestTable1:
    def test_six_rows(self):
        result = run_table1(QUICK_SCALE)
        assert len(result.tables[0].rows) == 6

    def test_copy_on_update_cell(self):
        result = run_table1(QUICK_SCALE)
        assert result.raw["copy-on-update"] == {
            "eager": False, "dirty_only": True, "layout": "double-backup",
        }


class TestTable2:
    def test_matches_paper_text(self):
        result = run_table2(QUICK_SCALE)
        raw = result.raw
        assert raw["naive-snapshot"]["Copy-To-Memory"] == "All objects"
        assert raw["dribble"]["Handle-Update"] == "First touched, all"
        assert raw["copy-on-update"]["Handle-Update"] == (
            "First touched, dirty"
        )
        assert raw["copy-on-update"]["Write-Objects-To-Stable-Storage"] == (
            "Dirty objects, double backup"
        )
        assert raw["partial-redo"]["Write-Copies-To-Stable-Storage"] == (
            "Dirty objects, log"
        )


class TestTable3:
    def test_paper_settings_rendered(self):
        result = run_table3(QUICK_SCALE)
        text = result.render()
        assert "30 Hz" in text
        assert "Bdisk" in text
        assert "512 bytes" in text
        assert "2.20 GB/s" in text
        assert "60.00 MB/s" in text
        assert "145.0 ns" in text

    def test_with_measured_column(self):
        result = run_table3(QUICK_SCALE, measured=PAPER_HARDWARE)
        assert "this host" in result.tables[0].columns


class TestTable4:
    def test_sweeps_rendered(self):
        result = run_table4(QUICK_SCALE)
        text = result.render()
        assert "10,000,000" in text
        assert "64,000" in text
        assert "256,000" in text
        assert "0.99" in text


class TestTable5:
    def test_update_rate_near_paper(self):
        result = run_table5(QUICK_SCALE.with_overrides(num_ticks=40))
        measured = result.raw["avg_updates_per_tick"]
        assert measured == pytest.approx(35_590, rel=0.06)

    def test_render_includes_paper_column(self):
        result = run_table5(QUICK_SCALE.with_overrides(num_ticks=20))
        assert "400,128" in result.render()
