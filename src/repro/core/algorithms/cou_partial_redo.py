"""Copy-on-Update-Partial-Redo: copy-on-update with a log organization.

"This algorithm is similar to Copy-on-Update, but uses a log-based disk
organization to transform sorted writes into sequential writes.  As with
Partial-Redo, we periodically run Dribble-and-Copy-on-Update to limit the
portion of the log that we must access during recovery." (Section 3.2.)

Regular checkpoints append only the objects dirtied since the previous
checkpoint; a full dump (every ``full_dump_period``-th checkpoint, or with no
period whenever the partials since the last one add up to the state) flushes
the whole state.
Old values are saved on the first update of any object in the active write
set (all objects, during a full dump).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.plan import CheckpointPlan, DiskLayout, UpdateEffects, empty_ids
from repro.core.policy import CheckpointPolicy
from repro.state.dirty import EpochSet, PolarityBitmap


class CopyOnUpdatePartialRedo(CheckpointPolicy):
    """Copy-on-update of dirty objects; log disk organization with full dumps."""

    key = "cou-partial-redo"
    name = "Copy-on-Update-Partial-Redo"
    eager_copy = False
    copies_dirty_only = True
    layout = DiskLayout.LOG
    SUBROUTINES = {
        "Copy-To-Memory": "No-op",
        "Write-Copies-To-Stable-Storage": "No-op",
        "Handle-Update": "First touched, dirty",
        "Write-Objects-To-Stable-Storage": "Dirty objects, log",
    }

    def __init__(
        self, num_objects: int, full_dump_period: Optional[int] = 9
    ) -> None:
        super().__init__(num_objects, full_dump_period)
        self._dirty = PolarityBitmap(num_objects, fill=True)
        self._touched = EpochSet(num_objects)
        self._write_mask = np.zeros(num_objects, dtype=bool)
        self._writing_everything = False

    def _begin(self, checkpoint_index: int) -> CheckpointPlan:
        self._touched.reset()
        write_set = self._dirty.set_ids()
        if self._take_full_dump(checkpoint_index, write_set.size):
            self._writing_everything = True
            self._dirty.clear_all()
            return CheckpointPlan(
                checkpoint_index=checkpoint_index,
                eager_copy_ids=empty_ids(),
                write_ids=None,
                layout=self.layout,
                is_full_dump=True,
            )
        self._writing_everything = False
        self._dirty.clear(write_set)
        self._write_mask.fill(False)
        self._write_mask[write_set] = True
        return CheckpointPlan(
            checkpoint_index=checkpoint_index,
            eager_copy_ids=empty_ids(),
            write_ids=write_set,
            layout=self.layout,
        )

    def _handle(self, object_ids: np.ndarray, update_count: int) -> UpdateEffects:
        self._dirty.set(object_ids)
        if not self.checkpoint_active:
            return UpdateEffects(
                bit_tests=update_count,
                first_touch_ids=empty_ids(),
                copy_ids=empty_ids(),
            )
        fresh = self._touched.add_new(object_ids)
        if self._writing_everything:
            copies = fresh
        else:
            copies = fresh[self._write_mask[fresh]]
        return UpdateEffects(
            bit_tests=update_count, first_touch_ids=fresh, copy_ids=copies
        )
