"""Tests for the vectorized per-tick object reduction."""

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.errors import TraceError
from repro.workloads import reduced as reduced_module
from repro.workloads.base import MaterializedTrace
from repro.workloads.reduced import PrecomputedObjectTrace, _reduce_trace
from repro.workloads.zipf import ZipfTrace


@pytest.fixture
def geometry():
    return StateGeometry(rows=400, columns=10)


def reference_reduction(trace):
    """The straightforward per-tick reduction the bulk pass must match."""
    objects, offsets, counts = [], [0], []
    for cells in trace.ticks():
        unique = np.unique(trace.geometry.object_of_cell(cells))
        objects.append(unique)
        offsets.append(offsets[-1] + unique.size)
        counts.append(cells.size)
    flat = (
        np.concatenate(objects) if objects else np.empty(0, dtype=np.int64)
    )
    return (
        flat.astype(np.int64),
        np.asarray(offsets, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
    )


class TestReduceTrace:
    def test_matches_per_tick_reference(self, geometry):
        trace = ZipfTrace(geometry, updates_per_tick=500, num_ticks=7, seed=3)
        got = _reduce_trace(trace)
        want = reference_reduction(trace)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype

    def test_chunked_matches_unchunked(self, geometry, monkeypatch):
        trace = ZipfTrace(geometry, updates_per_tick=300, num_ticks=9, seed=1)
        unchunked = _reduce_trace(trace)
        # Force a flush after every tick.
        monkeypatch.setattr(reduced_module, "_CHUNK_UPDATE_BUDGET", 1)
        chunked = _reduce_trace(trace)
        for a, b in zip(chunked, unchunked):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rows, key_type", [
        (400, np.int32),            # 4 ticks x 6,400 objects
        (1 << 26, np.int64),        # 4 ticks x 2**30 objects: 2**32 keys
    ])
    def test_key_width_follows_the_key_space(self, rows, key_type,
                                             monkeypatch):
        """Keys are int32 while ``ticks * num_objects`` fits below 2**31 and
        int64 beyond it; the ids come out int64 and per-tick exact."""
        geometry = StateGeometry(rows=rows, columns=2048)
        top = geometry.num_cells - 1
        trace = MaterializedTrace(geometry, [
            np.array([top, 0, 5, top, top // 2, 0], dtype=np.int64),
            np.array([top - 1, top], dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.array([7, 7, top, 3], dtype=np.int64),
        ])
        seen = []
        real = reduced_module.unique_ids

        def recording(keys):
            seen.append(keys.dtype)
            return real(keys)

        monkeypatch.setattr(reduced_module, "unique_ids", recording)
        got = _reduce_trace(trace)
        assert seen == [key_type]
        for a, b in zip(got, reference_reduction(trace)):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype == np.int64

    def test_empty_trace(self, geometry):
        objects, offsets, counts = _reduce_trace(
            MaterializedTrace(geometry, [])
        )
        assert objects.size == 0
        assert np.array_equal(offsets, [0])
        assert counts.size == 0

    def test_empty_ticks(self, geometry):
        trace = MaterializedTrace(
            geometry,
            [np.array([0, 1], dtype=np.int64), np.empty(0, dtype=np.int64)],
        )
        objects, offsets, counts = _reduce_trace(trace)
        assert np.array_equal(counts, [2, 0])
        assert offsets[-1] == objects.size


class TestPrecomputedObjectTrace:
    def test_construction_is_lazy(self, geometry):
        class ExplodingTrace(MaterializedTrace):
            def ticks(self):
                raise AssertionError("reduction forced too early")

        trace = ExplodingTrace(geometry, [np.array([0], dtype=np.int64)])
        reduced = PrecomputedObjectTrace(trace)
        # Geometry and tick count never touch the source trace.
        assert reduced.geometry == geometry
        assert reduced.num_ticks == 1
        with pytest.raises(AssertionError):
            reduced.update_counts

    def test_source_released_after_reduction(self, geometry):
        trace = ZipfTrace(geometry, updates_per_tick=50, num_ticks=2)
        reduced = PrecomputedObjectTrace(trace)
        reduced.arrays()
        assert reduced._source is None

    def test_counts_and_averages(self, geometry):
        trace = ZipfTrace(geometry, updates_per_tick=100, num_ticks=4, seed=0)
        reduced = PrecomputedObjectTrace(trace)
        assert reduced.total_updates == 400
        assert reduced.avg_updates_per_tick == 100.0
        assert reduced.avg_unique_objects_per_tick > 0

    def test_tick_objects_bounds(self, geometry):
        reduced = PrecomputedObjectTrace(
            ZipfTrace(geometry, updates_per_tick=10, num_ticks=2)
        )
        with pytest.raises(TraceError):
            reduced.tick_objects(2)
        with pytest.raises(TraceError):
            reduced.tick_objects(-1)

    def test_object_ticks_stream(self, geometry):
        trace = ZipfTrace(geometry, updates_per_tick=60, num_ticks=3, seed=5)
        reduced = PrecomputedObjectTrace(trace)
        pairs = list(reduced.object_ticks())
        assert len(pairs) == 3
        for index, (objects, count) in enumerate(pairs):
            assert count == 60
            assert np.array_equal(objects, reduced.tick_objects(index))
            assert np.array_equal(objects, np.unique(objects))  # sorted+uniq
