"""Atomic-Copy-Dirty-Objects: eager copy of dirty objects, double backup.

"This algorithm refines Naive-Snapshot by copying only the 'dirty' state that
has changed since the last checkpoint. ... we perform our copies eagerly
during the natural period of quiescence at the end of each tick.  We follow
Salem and Garcia-Molina and organize our checkpoints in a double-backup
structure on disk." (Section 3.2.)

Each object carries two dirty bits, one per backup; checkpoints alternate
between the backups and write their dirty objects in offset order (sorted
I/O).  Per update, the method only maintains the dirty bits -- the ``Obit``
cost that makes it slower than Naive-Snapshot above ~10,000 updates/tick.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import CheckpointPlan, DiskLayout, UpdateEffects, empty_ids
from repro.core.policy import CheckpointPolicy
from repro.state.dirty import DoubleBackupBits


class AtomicCopyDirtyObjects(CheckpointPolicy):
    """Eager copy of dirty objects; double-backup disk organization."""

    key = "atomic-copy"
    name = "Atomic-Copy-Dirty-Objects"
    eager_copy = True
    copies_dirty_only = True
    layout = DiskLayout.DOUBLE_BACKUP
    SUBROUTINES = {
        "Copy-To-Memory": "Dirty objects",
        "Write-Copies-To-Stable-Storage": "Dirty objects, double backup",
        "Handle-Update": "No-op",
        "Write-Objects-To-Stable-Storage": "No-op",
    }

    def __init__(self, num_objects: int, full_dump_period: int = 9) -> None:
        super().__init__(num_objects, full_dump_period)
        self._bits = DoubleBackupBits(num_objects)

    def _begin(self, checkpoint_index: int) -> CheckpointPlan:
        write_set = self._bits.begin_checkpoint()
        return CheckpointPlan(
            checkpoint_index=checkpoint_index,
            eager_copy_ids=write_set,
            write_ids=write_set,
            layout=self.layout,
        )

    def _finish(self) -> None:
        self._bits.finish_checkpoint()

    def _handle(self, object_ids: np.ndarray, update_count: int) -> UpdateEffects:
        self._bits.mark_updated(object_ids)
        # Dirty-bit maintenance is charged per update; the eager copy at the
        # checkpoint boundary means no locks or per-update copies are needed.
        return UpdateEffects(
            bit_tests=update_count,
            first_touch_ids=empty_ids(),
            copy_ids=empty_ids(),
        )
