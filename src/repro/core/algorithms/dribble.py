"""Dribble-and-Copy-on-Update: flush everything lazily, copy on first update.

"An asynchronous process iterates (or 'dribbles') through each object in the
game and flushes the object to the checkpoint if its bit is not set. ...
when an object whose bit is not set is updated, the object is copied and its
bit is set. ... In this strategy each object is copied exactly once per
checkpoint, regardless of how many times it is updated." (Section 3.2,
after Rosenkrantz [28].)

The per-object flushed/copied bit is modelled with an
:class:`~repro.state.dirty.EpochSet` whose O(1) reset plays the role of the
paper's bit-polarity inversion [24]: nothing is cleared between checkpoints.
The whole state goes to a sequential log every checkpoint, each one flagged
as the full dump it is, so the log store keeps only the newest.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import CheckpointPlan, DiskLayout, UpdateEffects, empty_ids
from repro.core.policy import CheckpointPolicy
from repro.state.dirty import EpochSet


class DribbleAndCopyOnUpdate(CheckpointPolicy):
    """Copy-on-update of all objects; log disk organization."""

    key = "dribble"
    name = "Dribble-and-Copy-on-Update"
    eager_copy = False
    copies_dirty_only = False
    layout = DiskLayout.LOG
    SUBROUTINES = {
        "Copy-To-Memory": "No-op",
        "Write-Copies-To-Stable-Storage": "No-op",
        "Handle-Update": "First touched, all",
        "Write-Objects-To-Stable-Storage": "All objects, log",
    }

    def __init__(self, num_objects: int, full_dump_period: int = 9) -> None:
        super().__init__(num_objects, full_dump_period)
        self._touched = EpochSet(num_objects)

    def _begin(self, checkpoint_index: int) -> CheckpointPlan:
        # Invert the interpretation of the flushed bits: everything becomes
        # "not yet handled" for the new checkpoint in O(1).
        self._touched.reset()
        return CheckpointPlan(
            checkpoint_index=checkpoint_index,
            eager_copy_ids=empty_ids(),
            write_ids=None,
            layout=self.layout,
            is_full_dump=True,
        )

    def _handle(self, object_ids: np.ndarray, update_count: int) -> UpdateEffects:
        if not self.checkpoint_active:
            # No checkpoint in flight (only before the very first one): the
            # update handler is not registered, so updates cost nothing.
            return UpdateEffects.none()
        fresh = self._touched.add_new(object_ids)
        # Every first-touched object is locked and its old value copied,
        # whether or not the dribbler already flushed it -- the paper charges
        # the handler "only ... the first time we update an item".
        return UpdateEffects(
            bit_tests=update_count, first_touch_ids=fresh, copy_ids=fresh
        )
