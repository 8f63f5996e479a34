"""Tests for the game-state table."""

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.errors import GeometryError
from repro.state.table import GameStateTable


@pytest.fixture
def geometry():
    # 100 cells of 4 B in 64 B objects -> 16 cells/object, 7 objects (last
    # partial: cells 96..99).
    return StateGeometry(rows=10, columns=10, cell_bytes=4, object_bytes=64)


@pytest.fixture
def table(geometry):
    return GameStateTable(geometry, dtype=np.uint32)


class TestConstruction:
    def test_rejects_mismatched_dtype(self, geometry):
        with pytest.raises(GeometryError):
            GameStateTable(geometry, dtype=np.uint16)

    def test_float32_allowed(self, geometry):
        table = GameStateTable(geometry, dtype=np.float32)
        assert table.dtype == np.float32

    def test_starts_zeroed(self, table):
        assert not table.cells.any()

    def test_views_share_memory(self, table):
        table.cells[3, 4] = 7
        assert table.flat[34] == 7


class TestUpdates:
    def test_apply_updates_lands_values(self, table):
        assert table.apply_updates(
            rows=np.array([0, 9]), columns=np.array([0, 9]),
            values=np.array([1, 2], dtype=np.uint32),
        ) is None
        assert table.cells[0, 0] == 1
        assert table.cells[9, 9] == 2
        assert np.count_nonzero(table.cells) == 2

    def test_apply_updates_duplicate_cell_last_value_wins(self, table):
        table.apply_updates(
            rows=np.array([3, 3]), columns=np.array([4, 4]),
            values=np.array([5, 6], dtype=np.uint32),
        )
        assert table.cells[3, 4] == 6

    def test_apply_updates_through_precomputed_cell_index(self, table):
        rows, columns = np.array([0, 9, 3]), np.array([0, 9, 4])
        values = np.array([1, 2, 3], dtype=np.uint32)
        expected = table.copy()
        expected.apply_updates(rows, columns, values)
        table.apply_updates(
            rows, columns, values, validate=False,
            cell_index=table.geometry.cell_index(rows, columns),
        )
        assert table.equals(expected)

    def test_apply_cell_updates(self, table):
        objects = table.apply_cell_updates(
            np.array([16, 17]), np.array([9, 9], dtype=np.uint32)
        )
        assert objects.tolist() == [1, 1]
        assert table.flat[16] == 9

    def test_out_of_range_row_rejected(self, table):
        with pytest.raises(GeometryError):
            table.apply_updates(np.array([10]), np.array([0]), np.array([1]))

    def test_out_of_range_column_rejected(self, table):
        with pytest.raises(GeometryError):
            table.apply_updates(np.array([0]), np.array([10]), np.array([1]))

    def test_out_of_range_cell_rejected(self, table):
        with pytest.raises(GeometryError):
            table.apply_cell_updates(np.array([100]), np.array([1]))


class TestObjectAccess:
    def test_read_objects_shape(self, table):
        payloads = table.read_objects(np.array([0, 6]))
        assert payloads.shape == (2, 16)

    def test_read_objects_is_copy(self, table):
        payloads = table.read_objects(np.array([0]))
        payloads[0, 0] = 42
        assert table.flat[0] == 0

    def test_write_objects_round_trip(self, table):
        table.flat[:] = np.arange(100, dtype=np.uint32)
        saved = table.read_objects(np.array([2, 4]))
        table.flat[:] = 0
        table.write_objects(np.array([2, 4]), saved)
        assert table.flat[32:48].tolist() == list(range(32, 48))
        assert table.flat[64:80].tolist() == list(range(64, 80))
        assert table.flat[0] == 0

    def test_object_bytes_round_trip(self, table):
        table.flat[:] = np.arange(100, dtype=np.uint32)
        raw = table.object_bytes(np.array([1, 3]))
        assert len(raw) == 2 * 64
        table.flat[:] = 0
        table.load_object_bytes(np.array([1, 3]), raw)
        assert table.flat[16:32].tolist() == list(range(16, 32))

    def test_padding_cells_round_trip(self, table):
        # Object 6 holds cells 96..99 plus 12 padding cells; reading and
        # writing it must not disturb real cells of other objects.
        table.flat[96:] = 7
        payload = table.read_objects(np.array([6]))
        table.flat[96:] = 0
        table.write_objects(np.array([6]), payload)
        assert (table.flat[96:] == 7).all()


class TestFullImage:
    def test_full_image_round_trip(self, table):
        rng = np.random.default_rng(1)
        table.fill_random(rng)
        image = table.full_image()
        assert len(image) == table.geometry.checkpoint_bytes
        clone = GameStateTable(table.geometry, dtype=table.dtype)
        clone.image_buffer()[:] = image
        assert clone.equals(table)


class TestCopyAndEquality:
    def test_copy_is_deep(self, table):
        table.cells[0, 0] = 1
        clone = table.copy()
        clone.cells[0, 0] = 2
        assert table.cells[0, 0] == 1
        assert not table.equals(clone)

    def test_equals_same_content(self, table):
        assert table.equals(table.copy())

    def test_equals_rejects_different_dtype(self, geometry):
        a = GameStateTable(geometry, dtype=np.uint32)
        b = GameStateTable(geometry, dtype=np.float32)
        assert not a.equals(b)

    def test_fill_random_float(self, geometry):
        table = GameStateTable(geometry, dtype=np.float32)
        table.fill_random(np.random.default_rng(0))
        assert table.cells.any()


class TestObjectRangeLoads:
    def test_object_bytes_is_single_copy_view(self, table):
        table.flat[:] = np.arange(100, dtype=np.uint32)
        raw = table.object_bytes(np.array([1]))
        assert isinstance(raw, memoryview)
        assert len(raw) == 64
        # The buffer is a copy: later table writes must not leak into it.
        before = bytes(raw)
        table.flat[16] = 999
        assert bytes(raw) == before

    def test_image_buffer_is_the_table_itself(self, table):
        table.flat[:] = np.arange(100, dtype=np.uint32)
        view = table.image_buffer()
        assert isinstance(view, memoryview)
        assert not view.readonly and view.format == "B"
        assert view.nbytes == table.geometry.checkpoint_bytes
        assert bytes(view) == table.full_image()
        # No copy: a write through the view is a write to the table.
        view[4 * 99: 4 * 100] = (1234).to_bytes(4, "little")
        assert table.cells[9, 9] == 1234


class TestValidateFastPath:
    def test_validate_false_skips_bounds_check(self, table):
        rows = np.array([0, 9])
        columns = np.array([0, 9])
        values = np.array([7, 8], dtype=np.uint32)
        table.apply_updates(rows, columns, values, validate=False)
        assert table.cells[0, 0] == 7
        assert table.cells[9, 9] == 8

    def test_out_of_range_column_is_not_a_flat_range_check(self, table):
        # (0, 10) on a 10-column table is flat cell 10 == (1, 0): in range
        # as a flat index, out of range as a column.
        with pytest.raises(GeometryError, match="column index"):
            table.check_updates(np.array([0]), np.array([10]))
        with pytest.raises(GeometryError, match="column index"):
            table.apply_updates(
                np.array([0]), np.array([10]), np.array([1], dtype=np.uint32)
            )
        assert not table.cells.any()

    def test_fused_check_still_names_the_bad_axis(self, table):
        with pytest.raises(GeometryError, match="row index"):
            table.apply_updates(
                np.array([10]), np.array([0]), np.array([1], dtype=np.uint32)
            )
        with pytest.raises(GeometryError, match="column index"):
            table.apply_updates(
                np.array([0]), np.array([-1]), np.array([1], dtype=np.uint32)
            )

    def test_cell_updates_validate_flag(self, table):
        table.apply_cell_updates(
            np.array([5]), np.array([42], dtype=np.uint32), validate=False
        )
        assert table.flat[5] == 42
        with pytest.raises(GeometryError):
            table.apply_cell_updates(
                np.array([100]), np.array([1], dtype=np.uint32)
            )

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_negative_rows_wrap_out_of_range(self, table, dtype):
        """One max over the unsigned view: a negative index is huge."""
        for bad in (-1, -10, np.iinfo(dtype).min):
            with pytest.raises(GeometryError, match="row index"):
                table.check_updates(
                    np.array([3, bad], dtype=dtype),
                    np.array([0, 0], dtype=dtype),
                )
        table.check_updates(np.array([0, 9], dtype=dtype),
                            np.array([0, 9], dtype=dtype))

    def test_unsigned_and_narrow_indices(self, table):
        table.check_updates(np.array([9], dtype=np.uint8),
                            np.array([9], dtype=np.uint16))
        with pytest.raises(GeometryError, match="column index"):
            table.check_updates(np.array([0], dtype=np.int8),
                                np.array([-128], dtype=np.int8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.bool_])
    def test_non_integer_indices_rejected(self, table, dtype):
        with pytest.raises(GeometryError, match="integers"):
            table.check_updates(np.array([1], dtype=dtype),
                                np.array([1], dtype=np.int64))
        with pytest.raises(GeometryError, match="integers"):
            table.check_updates(np.array([1], dtype=np.int64),
                                np.array([1], dtype=dtype))
