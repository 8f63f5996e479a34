"""Copy-on-Update: the paper's recommended algorithm.

"We can also refine Dribble-and-Copy-on-Update to copy only dirty objects
[7, 29].  In this algorithm the in-memory copies are performed on update,
and an object is copied only when it is first updated.  We use a
double-backup structure on disk as in Atomic-Copy-Dirty-Objects."
(Section 3.2.)

The paper's Section 8 recommendation: "The best method in terms of both
latency and recovery time is Copy-on-Update.  This method combines
checkpointing of dirty objects with copy on update and a double-backup
organization."

Per update the method tests a dirty bit (``Obit``); on the first touch of an
object within a checkpoint it acquires a lock (``Olock``) and, if the object
belongs to the checkpoint's write set -- i.e. it was "dirtied since the last
consistent image of the backup currently being written" (Section 5.4) -- it
copies the old value in memory so the asynchronous writer still sees the
checkpoint-consistent version.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import CheckpointPlan, DiskLayout, UpdateEffects, empty_ids
from repro.core.policy import CheckpointPolicy
from repro.state.dirty import DoubleBackupBits, EpochSet


class CopyOnUpdate(CheckpointPolicy):
    """Copy-on-update of dirty objects; double-backup disk organization."""

    key = "copy-on-update"
    name = "Copy-on-Update"
    eager_copy = False
    copies_dirty_only = True
    layout = DiskLayout.DOUBLE_BACKUP
    SUBROUTINES = {
        "Copy-To-Memory": "No-op",
        "Write-Copies-To-Stable-Storage": "No-op",
        "Handle-Update": "First touched, dirty",
        "Write-Objects-To-Stable-Storage": "Dirty objects, double backup",
    }

    def __init__(self, num_objects: int, full_dump_period: int = 9) -> None:
        super().__init__(num_objects, full_dump_period)
        self._bits = DoubleBackupBits(num_objects)
        self._touched = EpochSet(num_objects)
        self._write_mask = np.zeros(num_objects, dtype=bool)

    def _begin(self, checkpoint_index: int) -> CheckpointPlan:
        write_set = self._bits.begin_checkpoint()
        self._write_mask.fill(False)
        self._write_mask[write_set] = True
        self._touched.reset()
        return CheckpointPlan(
            checkpoint_index=checkpoint_index,
            eager_copy_ids=empty_ids(),
            write_ids=write_set,
            layout=self.layout,
        )

    def _finish(self) -> None:
        self._bits.finish_checkpoint()

    def _handle(self, object_ids: np.ndarray, update_count: int) -> UpdateEffects:
        self._bits.mark_updated(object_ids)
        if not self.checkpoint_active:
            return UpdateEffects(
                bit_tests=update_count,
                first_touch_ids=empty_ids(),
                copy_ids=empty_ids(),
            )
        fresh = self._touched.add_new(object_ids)
        copies = fresh[self._write_mask[fresh]]
        return UpdateEffects(
            bit_tests=update_count, first_touch_ids=fresh, copy_ids=copies
        )
