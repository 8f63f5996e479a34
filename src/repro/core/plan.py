"""Value types exchanged between policies, the framework, and executors."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def empty_ids() -> np.ndarray:
    """The canonical empty object-id array."""
    return _EMPTY_IDS


class DiskLayout(enum.Enum):
    """How a checkpoint is organized on stable storage (Section 3.2).

    ``DOUBLE_BACKUP``: two alternating full-size backup files; every object
    has a fixed offset, dirty objects are written in offset order (sorted
    I/O), and at least one backup is always consistent.

    ``LOG``: a simple append-only log written strictly sequentially; recovery
    reads the log backwards until every object has been seen.
    """

    DOUBLE_BACKUP = "double-backup"
    LOG = "log"


@dataclass(frozen=True)
class CheckpointPlan:
    """What one checkpoint will copy and write, decided at its start.

    Attributes
    ----------
    checkpoint_index:
        Ordinal of this checkpoint within the run (0-based).
    eager_copy_ids:
        Atomic objects the ``Copy-To-Memory`` subroutine copies synchronously
        at the end of the starting tick (sorted, possibly empty).
    write_ids:
        Atomic objects this checkpoint writes to stable storage, or ``None``
        meaning *all* objects (Naive-Snapshot, Dribble, and the periodic full
        dumps of the partial-redo methods).
    layout:
        Disk organization the write targets.
    is_full_dump:
        True when a log-organized method writes the whole state (the
        partial-redo pair's full dumps, every Dribble checkpoint): the log
        store starts a new log with it.
    """

    checkpoint_index: int
    eager_copy_ids: np.ndarray
    write_ids: Optional[np.ndarray]
    layout: DiskLayout
    is_full_dump: bool = False

    def write_count(self, num_objects: int) -> int:
        """Number of objects this checkpoint writes (``k`` in the model)."""
        if self.write_ids is None:
            return num_objects
        return int(self.write_ids.size)

    def writes_everything(self) -> bool:
        """True when the plan covers the whole state."""
        return self.write_ids is None


@dataclass(frozen=True)
class UpdateEffects:
    """Per-tick consequences of updates for the ``Handle-Update`` subroutine.

    The cost model (Section 4.2) charges ``Obit`` per dirty-bit test,
    ``Olock`` per lock acquisition, and a one-object synchronous memory copy
    per old-value save:

        dT_overhead = Obit + Olock + dT_sync(1)

    where the lock is paid only when the bit test fails (first touch within
    the checkpoint) and the copy only when the old value must be preserved.

    Attributes
    ----------
    bit_tests:
        Number of updates that performed a dirty-bit test or set
        (every update, for all methods except Naive-Snapshot).
    first_touch_ids:
        Objects touched for the first time during the current checkpoint
        (these acquire the lock).
    copy_ids:
        Subset of ``first_touch_ids`` whose old value must be copied in
        memory before the update proceeds.
    """

    bit_tests: int
    first_touch_ids: np.ndarray
    copy_ids: np.ndarray

    @classmethod
    def none(cls) -> "UpdateEffects":
        """Effects of a method that does no per-update work (Naive-Snapshot)."""
        return cls(bit_tests=0, first_touch_ids=_EMPTY_IDS, copy_ids=_EMPTY_IDS)

    @property
    def lock_count(self) -> int:
        """Number of lock acquisitions this tick."""
        return int(self.first_touch_ids.size)

    @property
    def copy_count(self) -> int:
        """Number of single-object in-memory copies this tick."""
        return int(self.copy_ids.size)
