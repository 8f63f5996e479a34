"""Trace characterization -- the numbers behind Table 5.

:class:`TraceStatistics` summarizes an update trace the way the paper
summarizes the prototype-game trace: number of units and attributes, tick
count, and the average number of updates per tick -- plus a few extras that
the analysis sections reason about informally (unique rows touched, unique
atomic objects touched per tick, per-column update distribution).

:meth:`TraceStatistics.from_trace` consumes a full cell-level trace, which
only a fresh generator can replay.  Callers that already hold a
:class:`~repro.workloads.reduced.PrecomputedObjectTrace` (e.g. Figure 5)
should read ``total_updates`` / ``avg_updates_per_tick`` /
``avg_unique_objects_per_tick`` straight off the reduction instead of
re-iterating the trace -- the reduction carries the per-tick update counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config import StateGeometry
from repro.state.dirty import unique_ids
from repro.workloads.base import UpdateTrace


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of one update trace."""

    geometry: StateGeometry
    num_ticks: int
    total_updates: int
    avg_updates_per_tick: float
    max_updates_per_tick: int
    min_updates_per_tick: int
    unique_cells: int
    unique_rows: int
    avg_unique_objects_per_tick: float
    column_update_counts: Tuple[int, ...]

    @classmethod
    def from_trace(cls, trace: UpdateTrace) -> "TraceStatistics":
        """Scan ``trace`` once and compute all statistics."""
        geometry = trace.geometry
        per_tick_counts = []
        per_tick_unique_objects = []
        cell_seen = np.zeros(geometry.num_cells, dtype=bool)
        column_counts = np.zeros(geometry.columns, dtype=np.int64)
        for cells in trace.ticks():
            per_tick_counts.append(cells.size)
            objects = unique_ids(geometry.object_of_cell(cells))
            per_tick_unique_objects.append(objects.size)
            cell_seen[cells] = True
            columns = cells % geometry.columns
            column_counts += np.bincount(columns, minlength=geometry.columns)
        counts = np.asarray(per_tick_counts, dtype=np.int64)
        row_seen = cell_seen.reshape(geometry.rows, geometry.columns).any(axis=1)
        return cls(
            geometry=geometry,
            num_ticks=len(per_tick_counts),
            total_updates=int(counts.sum()) if counts.size else 0,
            avg_updates_per_tick=float(counts.mean()) if counts.size else 0.0,
            max_updates_per_tick=int(counts.max()) if counts.size else 0,
            min_updates_per_tick=int(counts.min()) if counts.size else 0,
            unique_cells=int(cell_seen.sum()),
            unique_rows=int(row_seen.sum()),
            avg_unique_objects_per_tick=(
                float(np.mean(per_tick_unique_objects))
                if per_tick_unique_objects
                else 0.0
            ),
            column_update_counts=tuple(int(c) for c in column_counts),
        )

    def render_table5(self) -> str:
        """Render the Table 5 rows for this trace."""
        lines = [
            "parameter                        setting",
            "-------------------------------  ----------",
            f"number of units                  {self.geometry.rows:,}",
            f"number of attributes per unit    {self.geometry.columns}",
            f"number of ticks                  {self.num_ticks:,}",
            f"avg. number of updates per tick  {self.avg_updates_per_tick:,.0f}",
        ]
        return "\n".join(lines)

    def describe(self) -> str:
        """Multi-line description including the extended statistics."""
        column_parts = ", ".join(
            f"c{i}={count:,}" for i, count in enumerate(self.column_update_counts)
        )
        return "\n".join(
            [
                self.render_table5(),
                f"total updates                    {self.total_updates:,}",
                f"unique rows touched              {self.unique_rows:,}",
                f"unique cells touched             {self.unique_cells:,}",
                "avg. unique atomic objects/tick  "
                f"{self.avg_unique_objects_per_tick:,.0f}",
                f"updates by column                {column_parts}",
            ]
        )
