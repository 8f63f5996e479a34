"""Traces reduced to what checkpointing policies can observe.

Checkpointing policies never see individual cell updates: all they observe is
which *atomic objects* were touched during a tick and how many raw updates
occurred (every update is charged one dirty-bit test).  Reducing a trace to
per-tick ``(unique objects, update count)`` pairs is therefore lossless for
the simulator while being computable once and shared by every algorithm run
(:func:`repro.simulation.sweep.run_sweep` reduces each distinct trace once).

The reduction itself is vectorized: instead of one ``np.unique`` call per
tick, whole batches of ticks are deduplicated in a single pass by uniquing
the combined key ``tick * num_objects + object``, whose sorted order is
exactly tick-major / object-ascending -- the same per-tick sorted unique
arrays the per-tick loop produced, at a fraction of the interpreter overhead.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.config import StateGeometry
from repro.errors import TraceError
from repro.state.dirty import unique_ids
from repro.workloads.base import UpdateTrace

#: Upper bound on the number of cell updates deduplicated per bulk pass.
#: Bounds peak memory (a few int64 arrays of this size) while keeping the
#: batches large enough that numpy dominates the interpreter.
_CHUNK_UPDATE_BUDGET = 4_000_000


def _reduce_trace(
    trace: UpdateTrace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce ``trace`` to ``(objects, offsets, update_counts)`` arrays.

    ``objects`` concatenates each tick's sorted unique atomic-object ids;
    tick ``i`` owns the slice ``objects[offsets[i]:offsets[i + 1]]`` and had
    ``update_counts[i]`` raw cell updates.
    """
    geometry = trace.geometry
    num_objects = geometry.num_objects
    update_counts = []
    unique_counts = []
    object_parts = []
    pending: list = []
    pending_elems = 0

    def flush() -> None:
        nonlocal pending, pending_elems
        if not pending:
            return
        sizes = np.array([cells.size for cells in pending], dtype=np.int64)
        cells = (
            np.concatenate(pending)
            if int(sizes.sum())
            else np.empty(0, dtype=np.int64)
        )
        # int32 keys sort in about half the time of int64 ones.
        key_type = (np.int32 if len(pending) * num_objects < 1 << 31
                    else np.int64)
        tick_ids = np.repeat(np.arange(len(pending), dtype=key_type), sizes)
        keys = tick_ids * num_objects
        keys += geometry.object_of_cell(cells).astype(key_type)
        unique_keys = unique_ids(keys)
        # Sorted unique keys are tick-major, so each tick's segment is its
        # sorted unique object set; segment boundaries come from searchsorted.
        bounds = np.searchsorted(
            unique_keys // num_objects, np.arange(len(pending) + 1)
        )
        unique_counts.extend(np.diff(bounds).tolist())
        object_parts.append((unique_keys % num_objects).astype(np.int64))
        pending = []
        pending_elems = 0

    for cells in trace.ticks():
        update_counts.append(int(cells.size))
        pending.append(cells)
        pending_elems += cells.size
        if pending_elems >= _CHUNK_UPDATE_BUDGET:
            flush()
    flush()

    objects = (
        np.concatenate(object_parts) if object_parts else np.empty(0, np.int64)
    )
    offsets = np.zeros(len(unique_counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(unique_counts, dtype=np.int64), out=offsets[1:])
    return objects, offsets, np.asarray(update_counts, dtype=np.int64)


class PrecomputedObjectTrace:
    """An update trace reduced to per-tick ``(unique objects, update count)``.

    Construction is lazy: ``geometry`` and ``num_ticks`` are available
    immediately, and the source trace is only generated and reduced the first
    time tick data is requested.
    """

    def __init__(self, trace: UpdateTrace) -> None:
        self._geometry = trace.geometry
        self._num_ticks = trace.num_ticks
        self._source: Optional[UpdateTrace] = trace
        self._objects: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None
        self._update_counts: Optional[np.ndarray] = None

    def _ensure_reduced(self) -> None:
        if self._objects is not None:
            return
        self._objects, self._offsets, self._update_counts = _reduce_trace(
            self._source
        )
        self._num_ticks = int(self._update_counts.size)
        self._source = None  # the generator is no longer needed

    @property
    def geometry(self) -> StateGeometry:
        """Geometry of the originating trace."""
        return self._geometry

    @property
    def num_ticks(self) -> int:
        """Number of ticks (available without forcing the reduction)."""
        return self._num_ticks

    @property
    def update_counts(self) -> np.ndarray:
        """Raw cell updates per tick (with duplicates)."""
        self._ensure_reduced()
        return self._update_counts

    @property
    def total_updates(self) -> int:
        """Total raw cell updates across all ticks."""
        return int(self.update_counts.sum()) if self.num_ticks else 0

    @property
    def avg_updates_per_tick(self) -> float:
        """Mean raw cell updates per tick."""
        counts = self.update_counts
        return float(counts.mean()) if counts.size else 0.0

    @property
    def avg_unique_objects_per_tick(self) -> float:
        """Mean number of distinct atomic objects touched per tick."""
        self._ensure_reduced()
        if self._num_ticks == 0:
            return 0.0
        return float(self._objects.size / self._num_ticks)

    def tick_objects(self, index: int) -> np.ndarray:
        """Sorted unique atomic-object ids touched during tick ``index``."""
        self._ensure_reduced()
        if not 0 <= index < self._num_ticks:
            raise TraceError(
                f"tick {index} out of range [0, {self._num_ticks})"
            )
        return self._objects[self._offsets[index]: self._offsets[index + 1]]

    def object_ticks(self) -> Iterator[Tuple[np.ndarray, int]]:
        """Yield ``(unique_object_ids, update_count)`` per tick."""
        self._ensure_reduced()
        objects, offsets, counts = (
            self._objects, self._offsets, self._update_counts
        )
        return (
            (objects[offsets[i]: offsets[i + 1]], int(counts[i]))
            for i in range(self._num_ticks)
        )

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat ``(objects, offsets, update_counts)`` representation."""
        self._ensure_reduced()
        return self._objects, self._offsets, self._update_counts
