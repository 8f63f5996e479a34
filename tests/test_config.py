"""Tests for hardware parameters and state geometry."""

import numpy as np
import pytest

from repro.config import (
    GAME_GEOMETRY,
    PAPER_GEOMETRY,
    PAPER_HARDWARE,
    HardwareParameters,
    SimulationConfig,
    StateGeometry,
    small_config,
)
from repro.errors import ConfigurationError, GeometryError


class TestHardwareParameters:
    def test_table3_defaults(self):
        hw = PAPER_HARDWARE
        assert hw.tick_frequency_hz == 30.0
        assert hw.memory_bandwidth == pytest.approx(2.2e9)
        assert hw.memory_latency == pytest.approx(100e-9)
        assert hw.lock_overhead == pytest.approx(145e-9)
        assert hw.bit_test_overhead == pytest.approx(2e-9)
        assert hw.disk_bandwidth == pytest.approx(60e6)

    def test_tick_duration(self):
        assert PAPER_HARDWARE.tick_duration == pytest.approx(1 / 30)

    def test_latency_limit_is_half_a_tick(self):
        assert PAPER_HARDWARE.latency_limit == pytest.approx(1 / 60)

    def test_with_tick_frequency(self):
        hw = PAPER_HARDWARE.with_tick_frequency(60.0)
        assert hw.tick_duration == pytest.approx(1 / 60)
        assert hw.disk_bandwidth == PAPER_HARDWARE.disk_bandwidth

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            HardwareParameters(memory_bandwidth=0)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ConfigurationError):
            HardwareParameters(lock_overhead=-1e-9)


class TestStateGeometry:
    def test_paper_geometry_cell_count(self):
        assert PAPER_GEOMETRY.num_cells == 10_000_000

    def test_paper_geometry_object_count(self):
        # 10M cells x 4 B / 512 B = 78,125 -- the calibration in DESIGN.md.
        assert PAPER_GEOMETRY.num_objects == 78_125

    def test_paper_state_is_40_megabytes(self):
        assert PAPER_GEOMETRY.state_bytes == 40_000_000

    def test_game_geometry_matches_table5(self):
        assert GAME_GEOMETRY.rows == 400_128
        assert GAME_GEOMETRY.columns == 13

    def test_cells_per_object(self):
        assert PAPER_GEOMETRY.cells_per_object == 128

    def test_cell_index_round_trip(self):
        g = StateGeometry(rows=100, columns=7)
        assert g.cell_index(3, 4) == 25
        assert g.cell_index(np.array([0, 99]), np.array([0, 6])).tolist() == [
            0, 699
        ]

    def test_object_of_cell_vectorized(self):
        g = StateGeometry(rows=100, columns=10, cell_bytes=4, object_bytes=64)
        # 16 cells per object
        cells = np.array([0, 15, 16, 999])
        assert g.object_of_cell(cells).tolist() == [0, 0, 1, 62]

    def test_cell_range_of_object(self):
        g = StateGeometry(rows=10, columns=10, cell_bytes=4, object_bytes=64)
        assert list(g.cell_range_of_object(0)) == list(range(16))
        # Last object is partial: 100 cells, 7 objects of 16.
        assert list(g.cell_range_of_object(6)) == list(range(96, 100))

    def test_cell_range_out_of_range(self):
        g = StateGeometry(rows=10, columns=10, cell_bytes=4, object_bytes=64)
        with pytest.raises(GeometryError):
            g.cell_range_of_object(7)

    def test_checkpoint_bytes_padded(self):
        g = StateGeometry(rows=10, columns=10, cell_bytes=4, object_bytes=64)
        assert g.num_objects == 7
        assert g.checkpoint_bytes == 7 * 64
        assert g.checkpoint_bytes >= g.state_bytes

    def test_rejects_object_not_multiple_of_cell(self):
        with pytest.raises(GeometryError):
            StateGeometry(rows=10, columns=10, cell_bytes=3, object_bytes=64)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(GeometryError):
            StateGeometry(rows=0, columns=10)
        with pytest.raises(GeometryError):
            StateGeometry(rows=10, columns=-1)

    def test_describe_mentions_size(self):
        assert "40.0 MB" in PAPER_GEOMETRY.describe()


class TestSimulationConfig:
    def test_rejects_bad_full_dump_period(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                hardware=PAPER_HARDWARE,
                geometry=PAPER_GEOMETRY,
                full_dump_period=0,
            )

    def test_model_needs_a_full_dump_period(self):
        """The engine may bound its log without one; the model prices the
        log restore with ``C``."""
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                hardware=PAPER_HARDWARE,
                geometry=PAPER_GEOMETRY,
                full_dump_period=None,
            )

    def test_rejects_negative_warmup(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                hardware=PAPER_HARDWARE,
                geometry=PAPER_GEOMETRY,
                warmup_ticks=-1,
            )

    def test_small_config_overrides(self):
        config = small_config(full_dump_period=5)
        assert config.full_dump_period == 5
        assert config.geometry.rows == 1_600
