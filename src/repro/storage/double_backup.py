"""The double-backup checkpoint organization of Salem and Garcia-Molina [29].

"Two copies of the state are kept on disk and objects in main memory have two
bits associated with them, one for each backup. ... Checkpoints alternate
between the two backups to ensure that at all times there is at least one
consistent image on the disk.  Each object has a well-defined location in the
disk-resident checkpoint, allowing us to update objects in it directly.  As
one optimization to avoid arbitrary random writes, we write the dirty objects
to the double backup in order of their offsets on disk." (Section 3.2.)

:class:`DoubleBackupStore` implements exactly that: two files, each a header
plus a fixed-offset data region of ``num_objects * object_bytes``.  The
consistency protocol is:

1. ``begin_checkpoint`` stamps the target file's header ``IN_PROGRESS``
   (the *other* file keeps its complete image throughout);
2. ``write_objects`` overwrites object payloads in place, in offset order;
3. ``commit_checkpoint`` flushes the data and stamps the header
   ``COMPLETE`` with the checkpoint's epoch and cut tick.

A crash at any point leaves at least one file with a valid ``COMPLETE``
header, which :meth:`latest_consistent` finds on restart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.config import StateGeometry
from repro.errors import NoConsistentCheckpointError, StorageError
from repro.obs.trace import get_tracer
from repro.storage.layout import (
    BACKUP_HEADER_BYTES,
    STATE_COMPLETE,
    STATE_EMPTY,
    STATE_IN_PROGRESS,
    BackupHeader,
    check_fsync_policy,
    pread_into,
    pwritev_all,
    restore_destination,
)


@dataclass(frozen=True)
class ConsistentImage:
    """Identity of a complete checkpoint found on disk."""

    backup_index: int
    epoch: int
    tick: int


class DoubleBackupStore:
    """Two alternating backup files with fixed per-object offsets."""

    FILE_NAMES = ("backup0.db", "backup1.db")

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        geometry: StateGeometry,
        fsync_policy: str = "never",
    ) -> None:
        self._directory = os.fspath(directory)
        self._geometry = geometry
        self._fsync = check_fsync_policy(fsync_policy)
        #: Test hook: called before every object write batch; raising from it
        #: emulates a writer killed mid-flush (fault injection).
        self.write_fault_hook: Optional[Callable[[], None]] = None
        self._data_bytes = geometry.num_objects * geometry.object_bytes
        self._bytes_read = 0
        os.makedirs(self._directory, exist_ok=True)
        self._files = []
        for name in self.FILE_NAMES:
            path = os.path.join(self._directory, name)
            # "r+b" (not append mode) so seeks position in-place writes.
            fresh = not os.path.exists(path) or os.path.getsize(path) == 0
            handle = open(path, "w+b" if fresh else "r+b")
            if fresh:
                self._initialize_file(handle)
            self._files.append(handle)
        self._writing_to: Optional[int] = None
        self._writing_epoch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _initialize_file(self, handle) -> None:
        header = BackupHeader(
            state=STATE_EMPTY, epoch=0, tick=-1, geometry=self._geometry
        )
        handle.seek(0)
        handle.write(header.pack())
        handle.truncate(BACKUP_HEADER_BYTES + self._data_bytes)
        handle.flush()

    def close(self) -> None:
        """Close both backup files."""
        for handle in self._files:
            handle.close()

    def __enter__(self) -> "DoubleBackupStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def geometry(self) -> StateGeometry:
        """Geometry the store was created with."""
        return self._geometry

    @property
    def directory(self) -> str:
        """Directory holding the two backup files."""
        return self._directory

    @property
    def fsync_policy(self) -> str:
        """Active durability policy (``never`` / ``commit`` / ``always``)."""
        return self._fsync

    # ------------------------------------------------------------------
    # Header access
    # ------------------------------------------------------------------

    @property
    def bytes_read(self) -> int:
        """Bytes this store object has read from its backup files so far."""
        return self._bytes_read

    def _pread(self, backup_index: int, buffer, offset: int) -> int:
        """Positioned read of one backup file (:func:`pread_into` on the raw
        fd, buffered writes flushed first), counted into
        :attr:`bytes_read`."""
        handle = self._files[backup_index]
        handle.flush()
        read = pread_into(handle.fileno(), buffer, offset)
        self._bytes_read += read
        return read

    def header(self, backup_index: int) -> BackupHeader:
        """Read one backup's header, checking its geometry."""
        raw = bytearray(BACKUP_HEADER_BYTES)
        read = self._pread(backup_index, raw, 0)
        header = BackupHeader.unpack(raw[:read])
        if header.geometry != self._geometry:
            raise StorageError(
                f"backup {backup_index} was written with geometry "
                f"{header.geometry}, store opened with {self._geometry}"
            )
        return header

    def _write_header(
        self, backup_index: int, header: BackupHeader, committing: bool = False
    ) -> None:
        handle = self._files[backup_index]
        handle.seek(0)
        handle.write(header.pack())
        handle.flush()
        if self._fsync == "always" or (committing and self._fsync == "commit"):
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------

    def begin_checkpoint(self, backup_index: int, epoch: int) -> None:
        """Open backup ``backup_index`` for in-place writing at ``epoch``."""
        if backup_index not in (0, 1):
            raise StorageError(f"backup index must be 0 or 1, got {backup_index}")
        if self._writing_to is not None:
            raise StorageError(
                f"checkpoint already in progress on backup {self._writing_to}"
            )
        other = self.header(1 - backup_index)
        if other.state == STATE_IN_PROGRESS:
            raise StorageError(
                "both backups would be in progress at once; the double-backup "
                "invariant requires one consistent image at all times"
            )
        header = BackupHeader(
            state=STATE_IN_PROGRESS, epoch=epoch, tick=-1, geometry=self._geometry
        )
        self._write_header(backup_index, header)
        self._writing_to = backup_index
        self._writing_epoch = epoch

    def write_objects(self, object_ids: np.ndarray, payloads) -> None:
        """Write payload bytes for ``object_ids`` at their fixed offsets:
        :meth:`write_checkpoint_vectored` without a commit.

        ``payloads`` is any contiguous buffer of ``len(object_ids)``
        back-to-back object images.  Ids are written in increasing-offset
        order (the paper's sorted-write optimization) regardless of the
        order given; a repeated id keeps its last payload.
        """
        self.write_checkpoint_vectored(object_ids, payloads, None)

    def write_checkpoint_vectored(
        self, object_ids: np.ndarray, rows, cut_tick: Optional[int]
    ) -> int:
        """Land a staged write set, one ``pwritev`` per disk run, and commit.

        ``rows`` holds the objects' payloads in ``object_ids`` order (the
        writer's slab).  Each maximal run of consecutive ids is one slice of
        ``rows`` and one :func:`pwritev_all` call, so a checkpoint costs one
        vectorised pass to find the runs plus one syscall per run.  Commits
        the checkpoint at ``cut_tick`` (one data fsync under
        ``commit``/``always``); ``cut_tick=None`` lands the rows uncommitted
        (a slab of a job bigger than the writer's slab).  Returns the
        payload bytes written.
        """
        if self._writing_to is None:
            raise StorageError(
                "write_checkpoint_vectored outside begin/commit"
            )
        payload_bytes = memoryview(rows).nbytes
        with get_tracer().span(
            "backup_pwritev", cut=cut_tick, bytes=payload_bytes
        ):
            self._write_runs(object_ids, rows)
            if cut_tick is not None:
                self.commit_checkpoint(cut_tick)
        return payload_bytes

    def _write_runs(self, object_ids: np.ndarray, payloads) -> None:
        """Validate, then one :func:`pwritev_all` per run of consecutive ids.

        Ids that are not strictly increasing cost one comparison to detect
        and then a stable sort that keeps each id's last payload; sorted
        input (every flush) skips it.
        """
        if self.write_fault_hook is not None:
            self.write_fault_hook()
        object_ids = np.asarray(object_ids, dtype=np.int64)
        object_bytes = self._geometry.object_bytes
        rows = np.frombuffer(payloads, dtype=np.uint8)
        if rows.size != object_ids.size * object_bytes:
            raise StorageError(
                f"payload length {rows.size} does not match "
                f"{object_ids.size} objects of {object_bytes} bytes"
            )
        if object_ids.size == 0:
            return
        if object_ids.min() < 0 or object_ids.max() >= self._geometry.num_objects:
            raise StorageError("object id out of range")
        rows = rows.reshape(object_ids.size, object_bytes)
        steps = np.diff(object_ids)
        if not (steps > 0).all():
            order = np.argsort(object_ids, kind="stable")
            object_ids = object_ids[order]
            last = np.append(object_ids[1:] != object_ids[:-1], True)
            object_ids, rows = object_ids[last], rows[order[last]]
            steps = np.diff(object_ids)
        starts = np.concatenate(([0], np.flatnonzero(steps != 1) + 1))
        offsets = BACKUP_HEADER_BYTES + object_ids[starts] * object_bytes
        cuts = (np.append(starts, object_ids.size) * object_bytes).tolist()
        view = memoryview(rows).cast("B")
        handle = self._files[self._writing_to]
        handle.flush()
        fd = handle.fileno()
        for first, last, offset in zip(cuts, cuts[1:], offsets.tolist()):
            pwritev_all(fd, [view[first:last]], offset)

    def commit_checkpoint(self, tick: int) -> None:
        """Flush and stamp the in-progress backup ``COMPLETE`` at ``tick``."""
        if self._writing_to is None:
            raise StorageError("commit_checkpoint without begin_checkpoint")
        handle = self._files[self._writing_to]
        handle.flush()
        if self._fsync != "never":
            # The data region must be durable before the COMPLETE stamp.
            os.fsync(handle.fileno())
        header = BackupHeader(
            state=STATE_COMPLETE,
            epoch=self._writing_epoch,
            tick=tick,
            geometry=self._geometry,
        )
        self._write_header(self._writing_to, header, committing=True)
        self._writing_to = None

    def abort_checkpoint(self) -> None:
        """Abandon the in-progress write (the backup stays IN_PROGRESS)."""
        if self._writing_to is None:
            raise StorageError("abort_checkpoint without begin_checkpoint")
        self._writing_to = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def latest_consistent(self) -> ConsistentImage:
        """Find the newest complete image across both backups."""
        best: Optional[ConsistentImage] = None
        for index in (0, 1):
            header = self.header(index)
            if header.state != STATE_COMPLETE:
                continue
            if best is None or header.epoch > best.epoch:
                best = ConsistentImage(
                    backup_index=index, epoch=header.epoch, tick=header.tick
                )
        if best is None:
            raise NoConsistentCheckpointError(
                f"no complete checkpoint in {self._directory}"
            )
        return best

    def read_image(self, backup_index: int, out=None):
        """Read the full data region of one backup (a sequential restore).

        One positioned read straight into ``out``: any writable contiguous
        buffer of exactly ``num_objects * object_bytes`` bytes (recovery
        passes :meth:`GameStateTable.image_buffer`, so the image lands in
        the table with no staging copy).  Without ``out`` the same read fills
        a fresh ``bytearray``.  Returns ``out`` or that new buffer.
        """
        image, view = restore_destination(out, self._data_bytes)
        read = self._pread(backup_index, view, BACKUP_HEADER_BYTES)
        if read != self._data_bytes:
            raise StorageError(
                f"backup {backup_index} data region truncated "
                f"({read} of {self._data_bytes} bytes)"
            )
        return image

