"""Real stable-storage structures for checkpoints and logical logging.

Where :mod:`repro.simulation` only *prices* disk writes, this package
actually performs them, so the durable engine (:mod:`repro.engine`) and the
validation implementation (:mod:`repro.validation`) can crash and recover for
real:

* :class:`~repro.storage.double_backup.DoubleBackupStore` -- Salem and
  Garcia-Molina's organization: two alternating full-size backup files with
  fixed per-object offsets; while one backup is being overwritten in place,
  the other always holds a complete consistent image.
* :class:`~repro.storage.checkpoint_log.CheckpointLogStore` -- an
  append-only log of object versions with periodic full dumps, as used by
  the Partial-Redo methods.
* :class:`~repro.storage.action_log.ActionLog` -- the logical log: one
  record per game tick capturing what is needed to deterministically replay
  the simulation after restoring a checkpoint.
"""

from repro.storage.action_log import ActionLog, TickRecord
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore

__all__ = [
    "ActionLog",
    "CheckpointLogStore",
    "DoubleBackupStore",
    "TickRecord",
]
