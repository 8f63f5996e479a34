"""Partial-Redo: eager copy of dirty objects written to a sequential log.

"Partial-Redo writes dirty objects to a simple log [9].  Note that while the
log organization allows us to use a sequential write pattern, we may have to
read more of the log in order to find all objects necessary to reconstruct a
full consistent checkpoint.  In order to avoid this overhead, we periodically
create a full checkpoint of the state using Dribble-and-Copy-on-Update."
(Section 3.2.)

The full dumps (every ``full_dump_period``-th checkpoint, or with no period
whenever the partials since the last one add up to the state) are therefore
Dribble-style full flushes: no eager copy, old values saved on first update,
the whole state written to the log.  All other checkpoints eagerly copy the
dirty set at the tick boundary and append only those objects.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.plan import CheckpointPlan, DiskLayout, UpdateEffects, empty_ids
from repro.core.policy import CheckpointPolicy
from repro.state.dirty import EpochSet, PolarityBitmap


class PartialRedo(CheckpointPolicy):
    """Eager copy of dirty objects; log disk organization with full dumps."""

    key = "partial-redo"
    name = "Partial-Redo"
    eager_copy = True
    copies_dirty_only = True
    layout = DiskLayout.LOG
    SUBROUTINES = {
        "Copy-To-Memory": "Dirty objects",
        "Write-Copies-To-Stable-Storage": "Dirty objects, log",
        "Handle-Update": "No-op",
        "Write-Objects-To-Stable-Storage": "No-op",
    }

    def __init__(
        self, num_objects: int, full_dump_period: Optional[int] = 9
    ) -> None:
        super().__init__(num_objects, full_dump_period)
        # Dirty since the last checkpoint; starts all-set because nothing has
        # ever been written to the log.
        self._dirty = PolarityBitmap(num_objects, fill=True)
        # First-touch tracking, used only while a full dump is in flight.
        self._touched = EpochSet(num_objects)
        self._in_full_dump = False

    def _begin(self, checkpoint_index: int) -> CheckpointPlan:
        write_set = self._dirty.set_ids()
        if self._take_full_dump(checkpoint_index, write_set.size):
            self._in_full_dump = True
            self._touched.reset()
            self._dirty.clear_all()
            return CheckpointPlan(
                checkpoint_index=checkpoint_index,
                eager_copy_ids=empty_ids(),
                write_ids=None,
                layout=self.layout,
                is_full_dump=True,
            )
        self._in_full_dump = False
        self._dirty.clear(write_set)
        return CheckpointPlan(
            checkpoint_index=checkpoint_index,
            eager_copy_ids=write_set,
            write_ids=write_set,
            layout=self.layout,
        )

    def _handle(self, object_ids: np.ndarray, update_count: int) -> UpdateEffects:
        self._dirty.set(object_ids)
        if self.checkpoint_active and self._in_full_dump:
            # Dribble semantics during the periodic full flush.
            fresh = self._touched.add_new(object_ids)
            return UpdateEffects(
                bit_tests=update_count, first_touch_ids=fresh, copy_ids=fresh
            )
        return UpdateEffects(
            bit_tests=update_count,
            first_touch_ids=empty_ids(),
            copy_ids=empty_ids(),
        )
