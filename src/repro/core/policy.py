"""The abstract checkpointing policy interface.

A :class:`CheckpointPolicy` captures everything algorithm-specific about a
checkpointing method while staying free of cost accounting and I/O: it
maintains the dirty-tracking structures and answers two questions --

* at a checkpoint boundary, *which objects* must be eagerly copied and which
  must be written to stable storage (:meth:`begin_checkpoint`), and
* for each tick's updates, *which objects* incur bit tests, locks, and
  old-value copies (:meth:`handle_updates`).

The analytic simulator prices the answers with the Section 4.2 cost model;
the real engine executes them against actual memory and files.  Class-level
metadata (:attr:`eager_copy`, :attr:`copies_dirty_only`, :attr:`layout`,
:attr:`SUBROUTINES`) reproduces the paper's Table 1 and Table 2.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Dict, Optional

import numpy as np

from repro.core.plan import CheckpointPlan, DiskLayout, UpdateEffects
from repro.errors import ConfigurationError


class CheckpointPolicy(ABC):
    """Decision logic of one checkpointing algorithm.

    Lifecycle: the driver calls :meth:`handle_updates` once per tick with the
    updated objects' ids (repeats allowed), and at tick boundaries alternates
    :meth:`begin_checkpoint` / :meth:`finish_checkpoint` (checkpoints are
    taken back-to-back, so after the first boundary there is always an active
    checkpoint).
    """

    #: Stable registry key, e.g. ``"copy-on-update"``.
    key: ClassVar[str]
    #: Human-readable name as printed in the paper's figures.
    name: ClassVar[str]
    #: Table 1 column: eager in-memory copy (True) vs copy-on-update (False).
    eager_copy: ClassVar[bool]
    #: Table 1 row: copies only dirty objects (True) vs all objects (False).
    copies_dirty_only: ClassVar[bool]
    #: Table 1 disk organization.
    layout: ClassVar[DiskLayout]
    #: Table 2 row: what each framework subroutine does for this algorithm.
    SUBROUTINES: ClassVar[Dict[str, str]]

    def __init__(
        self, num_objects: int, full_dump_period: Optional[int] = 9
    ) -> None:
        if num_objects <= 0:
            raise ConfigurationError(
                f"num_objects must be positive, got {num_objects}"
            )
        if full_dump_period is not None and full_dump_period < 1:
            raise ConfigurationError(
                f"full_dump_period must be >= 1, got {full_dump_period}"
            )
        self._num_objects = num_objects
        self._full_dump_period = full_dump_period
        #: Objects written by partial checkpoints since the last full dump.
        self._written_since_full_dump = 0
        self._checkpoint_index = 0
        self._active = False

    @property
    def num_objects(self) -> int:
        """Number of atomic objects in the state this policy tracks."""
        return self._num_objects

    @property
    def full_dump_period(self) -> Optional[int]:
        """``C``: full-state log flush every C-th checkpoint (log methods);
        None for the bounded rule of :meth:`_take_full_dump`."""
        return self._full_dump_period

    @property
    def checkpoints_started(self) -> int:
        """How many checkpoints have been started so far."""
        return self._checkpoint_index

    @property
    def checkpoint_active(self) -> bool:
        """True while a checkpoint is between begin and finish."""
        return self._active

    # ------------------------------------------------------------------
    # Driver interface
    # ------------------------------------------------------------------

    def begin_checkpoint(self) -> CheckpointPlan:
        """Start a new checkpoint; returns what to copy and write."""
        if self._active:
            raise ConfigurationError(
                f"{self.name}: begin_checkpoint while a checkpoint is active"
            )
        plan = self._begin(self._checkpoint_index)
        self._checkpoint_index += 1
        self._active = True
        return plan

    def finish_checkpoint(self) -> None:
        """Mark the active checkpoint durable on stable storage."""
        if not self._active:
            raise ConfigurationError(
                f"{self.name}: finish_checkpoint without an active checkpoint"
            )
        self._finish()
        self._active = False

    def handle_updates(
        self, object_ids: np.ndarray, update_count: int
    ) -> UpdateEffects:
        """Record one tick's updates.

        Parameters
        ----------
        object_ids:
            Object ids, may repeat: the atomic objects updated this tick, in
            any order, e.g. one id per cell update.  The dirty bits are
            idempotent and the first-touch test dedupes, so the returned
            ``first_touch_ids`` / ``copy_ids`` are ascending and unique
            either way.
        update_count:
            Total number of cell updates this tick (with duplicates) -- the
            number of dirty-bit tests the inner loop performs.
        """
        if update_count < object_ids.size:
            raise ConfigurationError(
                "update_count cannot be smaller than the number of object "
                f"ids ({update_count} < {object_ids.size})"
            )
        return self._handle(np.asarray(object_ids, dtype=np.int64),
                            int(update_count))

    # ------------------------------------------------------------------
    # Algorithm-specific hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def _begin(self, checkpoint_index: int) -> CheckpointPlan:
        """Build the plan for checkpoint ``checkpoint_index``."""

    @abstractmethod
    def _handle(self, object_ids: np.ndarray, update_count: int) -> UpdateEffects:
        """Maintain dirty state for one tick's updates and report effects."""

    def _finish(self) -> None:
        """Hook run when the active checkpoint becomes durable (optional)."""

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def _take_full_dump(self, checkpoint_index: int, write_count: int) -> bool:
        """Whether checkpoint ``checkpoint_index``, whose partial write set
        holds ``write_count`` objects, is a full log flush instead: every
        C-th checkpoint (the paper's rule), or without ``C`` once the objects
        partials wrote since the last full dump, plus these, reach the number
        of objects, so the log past a full dump holds fewer than that."""
        if self._full_dump_period is not None:
            return (checkpoint_index + 1) % self._full_dump_period == 0
        self._written_since_full_dump += write_count
        if self._written_since_full_dump < self._num_objects:
            return False
        self._written_since_full_dump = 0
        return True

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} objects={self._num_objects} "
            f"checkpoints={self._checkpoint_index}>"
        )
