"""Naive-Snapshot: quiesce, eagerly copy everything, write asynchronously.

"The simplest consistent checkpointing technique is to quiesce the system at
the end of a tick and eagerly create a consistent copy of the state in main
memory.  We then write the state to stable storage asynchronously."
(Section 3.2.)  Following the paper's experiments, the double-backup disk
structure is used.

Naive-Snapshot does no per-update work at all -- no dirty bits, no locks --
which is why it has the lowest *total* overhead at extreme update rates
(Section 5.2), but it concentrates a full-state memory copy (~17 ms for the
paper's 40 MB state) into a single tick.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import CheckpointPlan, DiskLayout, UpdateEffects
from repro.core.policy import CheckpointPolicy


class NaiveSnapshot(CheckpointPolicy):
    """Eager copy of all objects; double-backup disk organization."""

    key = "naive-snapshot"
    name = "Naive-Snapshot"
    eager_copy = True
    copies_dirty_only = False
    layout = DiskLayout.DOUBLE_BACKUP
    SUBROUTINES = {
        "Copy-To-Memory": "All objects",
        "Write-Copies-To-Stable-Storage": "All objects, log",
        "Handle-Update": "No-op",
        "Write-Objects-To-Stable-Storage": "No-op",
    }

    def __init__(self, num_objects: int, full_dump_period: int = 9) -> None:
        super().__init__(num_objects, full_dump_period)
        # The whole state is one contiguous run, copied every checkpoint.
        self._all_ids = np.arange(num_objects, dtype=np.int64)

    def _begin(self, checkpoint_index: int) -> CheckpointPlan:
        return CheckpointPlan(
            checkpoint_index=checkpoint_index,
            eager_copy_ids=self._all_ids,
            write_ids=None,
            layout=self.layout,
        )

    def _handle(self, object_ids: np.ndarray, update_count: int) -> UpdateEffects:
        return UpdateEffects.none()
