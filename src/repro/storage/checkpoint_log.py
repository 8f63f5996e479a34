"""Append-only checkpoint log for the Partial-Redo methods.

"Partial-Redo writes dirty objects to a simple log [9].  Note that while the
log organization allows us to use a sequential write pattern, we may have to
read more of the log in order to find all objects necessary to reconstruct a
full consistent checkpoint." (Section 3.2.)

The log is a :class:`~repro.storage.layout.RecordFile` (the framed record
file under the action log too) holding::

    CHECKPOINT_BEGIN  (epoch, is_full_dump)
    OBJECTS           (epoch, first_object_id_count) + [ids][payloads]
    CHECKPOINT_COMMIT (epoch, cut_tick)

Recovery (:meth:`CheckpointLogStore.restore_image`) reads the log oldest
first, from the newest committed full dump through the last commit, and a
later version of an object overwrites an earlier one.  Nothing older than
that full dump is read: the simulator charges ``(k*C + n)`` objects when
``k`` are appended per checkpoint and a full dump comes every ``C``-th.  A
full dump is written into a fresh file (``checkpoints.log.next``) that
atomically replaces the log once its commit is durable, so the log only
ever holds the newest full dump and the partials after it; with the
engine's default policy (a full dump once the partials since the last one
add up to the state) a restore reads, and the disk holds, less than two
images of log.  :meth:`restore_scan_bytes` reports those bytes, which the
validation experiments compare against the model.

Checkpoints are appended one at a time with increasing epochs, so file order
is history order: the newest committed checkpoint is the last one in the file.
Opening the store walks the log's headers once, and appends extend that
index.  A torn tail, a failed write, or a record a restore found corrupt ends
the log, and the next append cuts it off.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.config import StateGeometry
from repro.errors import NoConsistentCheckpointError, StorageError
from repro.obs.trace import get_tracer
from repro.storage.layout import (
    GEOMETRY_BYTES,
    RECORD_CHECKPOINT_BEGIN,
    RECORD_CHECKPOINT_COMMIT,
    RECORD_HEADER_BYTES,
    RECORD_OBJECTS,
    Record,
    RecordFile,
    check_fsync_policy,
    fsync_directory,
    pack_geometry,
    restore_destination,
    unpack_geometry,
)

_GEOMETRY_RECORD = 0  # pseudo-epoch used by the leading geometry record
_GEOMETRY_RECORD_BYTES = RECORD_HEADER_BYTES + GEOMETRY_BYTES

#: Bytes skipped at the front of the record scratch buffer so the payload
#: (and with it the int64 ids) starts 8-byte aligned behind the 29-byte header.
_SCRATCH_PAD = -RECORD_HEADER_BYTES % 8

#: Most objects one OBJECTS record of a gathered checkpoint frames: the
#: writer pool's default chunk, so the records are the ones chunk-at-a-time
#: appends would frame.
OBJECTS_PER_RECORD = 512


def _open_log(path: str) -> RecordFile:
    # Header-sized walk reads: an OBJECTS payload is far longer than the
    # headers a block read would find around it.
    return RecordFile(path, block_bytes=RECORD_HEADER_BYTES)


@dataclass
class _LogCheckpoint:
    """Parsed view of one committed checkpoint's records in the log."""

    epoch: int
    is_full_dump: bool
    cut_tick: int
    #: Index (into the walked record list) of each OBJECTS record.
    object_records: List[int]
    #: Indices of the BEGIN and the COMMIT record in the walked record list.
    first_record: int
    last_record: int


def _scatter(
    ids: np.ndarray, rows: np.ndarray, out_rows: np.ndarray, ascending: bool
) -> None:
    """``out_rows[ids] = rows`` for one OBJECTS record read into scratch.

    Within a record the last occurrence of an id is its version: a run
    that is not strictly ``ascending`` (the writer's never are) pays for a
    stable sort that keeps each id's last row.
    """
    if not ascending:
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        last = np.concatenate((ids[1:] != ids[:-1], [True]))
        ids, rows = ids[last], rows[order[last]]
    if ids[0] < 0 or ids[-1] >= len(out_rows):
        raise StorageError("object id out of range in checkpoint log")
    out_rows[ids] = rows


class CheckpointLogStore:
    """A simple sequential checkpoint log with periodic full dumps."""

    FILE_NAME = "checkpoints.log"

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        geometry: StateGeometry,
        fsync_policy: str = "never",
    ) -> None:
        self._directory = os.fspath(directory)
        self._geometry = geometry
        self._fsync = check_fsync_policy(fsync_policy)
        #: Test hook: called before every object append; raising from it
        #: emulates a writer killed mid-flush (fault injection).
        self.write_fault_hook: Optional[Callable[[], None]] = None
        #: Bytes read from log files this store has since replaced.
        self._bytes_read = 0
        os.makedirs(self._directory, exist_ok=True)
        self._path = os.path.join(self._directory, self.FILE_NAME)
        self._next_path = self._path + ".next"
        # A full dump that never committed: the log it was to replace is
        # still the committed one.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self._next_path)
        self._log = _open_log(self._path)
        #: The full dump being written, while one is (see begin_checkpoint).
        self._next: Optional[RecordFile] = None
        try:
            # The log's one full walk; later walks and appends extend it.
            self._log.walk()
            if self._log.size() == 0:
                self._log.append([self._geometry_record()])
            else:
                self._verify_geometry()
        except BaseException:
            self._log.close()
            raise
        self._writing_epoch: Optional[int] = None

    def close(self) -> None:
        """Close the log file (an unfinished full dump's file stays on disk
        until the next open removes it)."""
        if self._next is not None:
            self._next.close()
        self._log.close()

    def __enter__(self) -> "CheckpointLogStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def geometry(self) -> StateGeometry:
        """Geometry the log was created with."""
        return self._geometry

    @property
    def path(self) -> str:
        """Path of the log file."""
        return self._path

    @property
    def fsync_policy(self) -> str:
        """Active durability policy (``never`` / ``commit`` / ``always``)."""
        return self._fsync

    def _geometry_record(self):
        return (RECORD_CHECKPOINT_BEGIN, _GEOMETRY_RECORD, 0,
                [pack_geometry(self._geometry)])

    def _append(self, records: List, committing: bool = False) -> None:
        """Append records to the full dump being written, if there is one,
        else to the log.  A ``committing`` append is durable under the
        ``commit`` policy too; a committed full dump replaces the log."""
        (self._next or self._log).append(records, fsync=(
            self._fsync == "always"
            or (committing and self._fsync == "commit")
        ))
        if committing and self._next is not None:
            self._install_next()

    def _install_next(self) -> None:
        """Make the committed full dump the log: rename it over the log,
        make the rename durable, then read and append through it."""
        os.replace(self._next_path, self._path)
        if self._fsync != "never":
            fsync_directory(self._directory)
        self._bytes_read += self._log.bytes_read
        self._log.close()
        self._log, self._next = self._next, None

    def _verify_geometry(self) -> None:
        first = self._log.records[:1]
        payload = None
        if first and (first[0].type, first[0].a, first[0].length) == (
            RECORD_CHECKPOINT_BEGIN, _GEOMETRY_RECORD, GEOMETRY_BYTES
        ):
            payload = self._log.read_verified(0)
        if payload is None:
            raise StorageError(f"{self._path} does not start with a geometry record")
        on_disk = unpack_geometry(payload)
        if on_disk != self._geometry:
            raise StorageError(
                f"log was written with geometry {on_disk}, "
                f"store opened with {self._geometry}"
            )

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------

    def begin_checkpoint(self, epoch: int, is_full_dump: bool) -> None:
        """Append the begin record of checkpoint ``epoch``.

        A full dump supersedes everything in the log, so unless the log
        holds nothing yet it starts a new one: a fresh ``.next`` file,
        headed by the geometry record, takes this checkpoint's records and
        replaces the log on commit.  Until then every read still sees the
        committed log.
        """
        if self._writing_epoch is not None:
            raise StorageError(
                f"checkpoint {self._writing_epoch} already in progress"
            )
        if epoch <= 0:
            raise StorageError(f"epoch must be positive, got {epoch}")
        begin = (RECORD_CHECKPOINT_BEGIN, epoch, int(is_full_dump), [])
        if is_full_dump and self.size_bytes() > _GEOMETRY_RECORD_BYTES:
            self._next = _open_log(self._next_path)
            # In progress from here: a failed write is aborted like any other.
            self._writing_epoch = epoch
            self._append([self._geometry_record(), begin])
        else:
            self._append([begin])
        self._writing_epoch = epoch

    def append_objects(self, object_ids: np.ndarray, payloads) -> None:
        """Append one run of object versions to the in-progress checkpoint:
        :meth:`write_checkpoint_vectored` without a commit.

        ``payloads`` is any contiguous bytes-like buffer holding
        ``len(object_ids)`` back-to-back object images.
        """
        self.write_checkpoint_vectored(object_ids, payloads, None)

    def write_checkpoint_vectored(
        self, object_ids: np.ndarray, rows, cut_tick: Optional[int]
    ) -> int:
        """Land a staged write set and its commit marker in one gathered write.

        ``rows`` holds the objects' payloads in ``object_ids`` order (the
        writer's slab); the fault hook runs, then ids and lengths are
        checked before a byte is written.  It is framed as one OBJECTS
        record per :data:`OBJECTS_PER_RECORD` objects over slices of
        ``rows`` -- never copied -- and every record *and* the commit
        marker go to one ``writev`` (split only at ``IOV_MAX``), made
        durable by at most one ``fsync`` under the ``commit``/``always``
        policies.  ``cut_tick=None`` lands the records uncommitted (a slab
        of a job bigger than the writer's slab).

        The commit marker is the final entry of the iovec and ``writev``
        lands buffers in order, so a torn write can truncate the checkpoint
        but can never produce a commit marker ahead of its data: recovery
        sees either a fully committed checkpoint or an uncommitted tail it
        already knows to ignore.  Returns the number of payload bytes
        written; a commit ends the in-progress checkpoint.
        """
        if self._writing_epoch is None:
            raise StorageError(
                "write_checkpoint_vectored outside begin/commit"
            )
        if self.write_fault_hook is not None:
            self.write_fault_hook()
        object_ids = np.ascontiguousarray(object_ids, dtype=np.int64)
        object_bytes = self._geometry.object_bytes
        payload_view = memoryview(rows)
        payload_bytes = payload_view.nbytes
        if payload_bytes != object_ids.size * object_bytes:
            raise StorageError(
                f"payload length {payload_bytes} does not match "
                f"{object_ids.size} objects of {object_bytes} bytes"
            )
        records: List = []
        if object_ids.size:
            if (object_ids.min() < 0
                    or object_ids.max() >= self._geometry.num_objects):
                raise StorageError("object id out of range")
            payload_view = payload_view.cast("B")
            record_bytes = OBJECTS_PER_RECORD * object_bytes
            for first in range(0, object_ids.size, OBJECTS_PER_RECORD):
                ids = object_ids[first: first + OBJECTS_PER_RECORD]
                offset = first * object_bytes
                records.append((
                    RECORD_OBJECTS, self._writing_epoch, ids.size,
                    [ids, payload_view[offset: offset + record_bytes]],
                ))
        if cut_tick is not None:
            records.append(
                (RECORD_CHECKPOINT_COMMIT, self._writing_epoch, cut_tick, [])
            )
        with get_tracer().span(
            "log_writev",
            epoch=self._writing_epoch,
            cut=cut_tick,
            bytes=payload_bytes,
            records=len(records),
        ):
            self._append(records, committing=cut_tick is not None)
        if cut_tick is not None:
            self._writing_epoch = None
        return payload_bytes

    def commit_checkpoint(self, tick: int) -> None:
        """Append the commit record; the checkpoint is now recoverable."""
        if self._writing_epoch is None:
            raise StorageError("commit_checkpoint without begin_checkpoint")
        self._append(
            [(RECORD_CHECKPOINT_COMMIT, self._writing_epoch, tick, [])],
            committing=True,
        )
        self._writing_epoch = None

    def abort_checkpoint(self) -> None:
        """Abandon the in-progress checkpoint: its records stay uncommitted
        in the log, or the unfinished full dump's file is removed."""
        if self._writing_epoch is None:
            raise StorageError("abort_checkpoint without begin_checkpoint")
        if self._next is not None:
            self._next.close()
            os.unlink(self._next_path)
            self._next = None
        self._writing_epoch = None

    # ------------------------------------------------------------------
    # Scanning and recovery
    # ------------------------------------------------------------------

    @property
    def bytes_read(self) -> int:
        """Bytes this store object has read from the log file so far."""
        return self._bytes_read + self._log.bytes_read

    def _history(self, records: List[Record]) -> List[_LogCheckpoint]:
        """The committed checkpoints a restore applies, oldest first.

        A checkpoint is a BEGIN record and the OBJECTS / COMMIT records of
        the same epoch that follow it before the next BEGIN; the writer
        appends one checkpoint at a time, so file order is history order.
        The last one returned is the target (the newest committed
        checkpoint); the first is the newest committed full dump at or
        before it -- nothing older can contribute a byte -- or the log's
        first committed checkpoint when no full dump exists.
        """
        committed: List[_LogCheckpoint] = []
        current: Optional[_LogCheckpoint] = None
        for index, record in enumerate(records):
            if record.type == RECORD_CHECKPOINT_BEGIN:
                if record.a == _GEOMETRY_RECORD:
                    continue
                current = _LogCheckpoint(
                    epoch=record.a,
                    is_full_dump=bool(record.b),
                    cut_tick=-1,
                    object_records=[],
                    first_record=index,
                    last_record=index,
                )
            elif current is not None and record.a == current.epoch:
                if record.type == RECORD_OBJECTS:
                    current.object_records.append(index)
                elif record.type == RECORD_CHECKPOINT_COMMIT:
                    current.cut_tick = record.b
                    current.last_record = index
                    committed.append(current)
                    current = None
        if not committed:
            raise NoConsistentCheckpointError(
                f"no committed checkpoint in {self._path}"
            )
        start = max(
            (i for i, c in enumerate(committed) if c.is_full_dump), default=0
        )
        return committed[start:]

    @staticmethod
    def _trusted_range(history: List[_LogCheckpoint]) -> Tuple[int, int]:
        """Record indices ``(first, last)`` a restore of ``history`` relies
        on: the base full dump's BEGIN (record 0 without one) through the
        target's COMMIT, aborted checkpoints in between included."""
        first = history[0].first_record if history[0].is_full_dump else 0
        return first, history[-1].last_record

    @staticmethod
    def _scratch_for(records: List[Record], first: int, last: int):
        """One reusable buffer that fits any record of ``[first, last]``,
        placed so that a payload read into it starts 8-byte aligned."""
        longest = max(record.length for record in records[first: last + 1])
        return memoryview(np.empty(
            _SCRATCH_PAD + RECORD_HEADER_BYTES + longest, np.uint8
        ))[_SCRATCH_PAD:]

    def latest_committed(self) -> Tuple[int, int]:
        """``(epoch, cut_tick)`` of the newest committed checkpoint.

        Every record a restore of it relies on is verified first; one that
        fails ends the log there, and the history is resolved again over
        the shortened log until a fully verified one is found.
        """
        target = self._restore(None)
        return target.epoch, target.cut_tick

    def restore_image(self, out=None) -> Tuple[object, int, int]:
        """Reconstruct the newest committed checkpoint image into ``out``.

        ``out`` is any writable contiguous buffer of exactly
        ``num_objects * object_bytes`` bytes (recovery passes
        :meth:`GameStateTable.image_buffer`, so rows land in the table with
        no staging image); without it the same code fills a fresh
        ``bytearray``.  Returns ``(image, epoch, cut_tick)`` where ``image``
        is ``out`` or that new buffer.

        The open's header walk found the committed checkpoints; records are
        read in file order from the newest full dump's BEGIN through the
        target's COMMIT, so a later version of an object overwrites an
        earlier one.  An OBJECTS record whose ids are one ascending
        contiguous run (every record of the writer's full dumps) is read
        straight into ``out``; any other goes through one scratch buffer.
        *Verify what you trust*: every record in that range passes its CRC
        before the pass moves on; one that fails ends the log there, as a
        torn tail does, and the restore starts over against the shortened
        log.  Objects no checkpoint wrote (possible only without a full
        dump) come out zero-filled, as does ``out`` when such a restart
        ends in :class:`NoConsistentCheckpointError`.
        """
        geometry = self._geometry
        image, view = restore_destination(
            out, geometry.num_objects * geometry.object_bytes
        )
        out_rows = np.frombuffer(view, dtype=np.uint8).reshape(
            geometry.num_objects, geometry.object_bytes
        )
        target = self._restore(out_rows)
        return image, target.epoch, target.cut_tick

    def _restore(self, out_rows: Optional[np.ndarray]) -> _LogCheckpoint:
        """Verify (and, into ``out_rows``, apply) the newest committed
        checkpoint's trusted range; returns that checkpoint.  A corrupt
        record ends the log there, and the history is resolved again."""
        records = self._log.walk()
        restarted = False
        while True:
            try:
                history = self._history(records)
            except NoConsistentCheckpointError:
                if restarted and out_rows is not None:
                    out_rows[:] = 0
                raise
            corrupt = self._fill(records, history, out_rows)
            if corrupt is None:
                return history[-1]
            self._log.cut(corrupt)
            restarted = True

    def _fill(
        self, records: List[Record], history: List[_LogCheckpoint],
        out_rows: Optional[np.ndarray],
    ) -> Optional[int]:
        """One file-order pass of :meth:`_restore` over ``history``.

        Returns the index of the first record found corrupt (the caller
        shortens the log and retries), else None with ``out_rows`` complete
        (without ``out_rows``, every record is only verified).  While the
        applied records land one contiguous prefix ``[0, written)`` (a full
        dump's all of it) the rest of ``out_rows`` is left as it is; it is
        zeroed before the first record that lands anywhere else.
        """
        num_objects = self._geometry.num_objects
        object_bytes = self._geometry.object_bytes
        first, last = self._trusted_range(history)
        applies = set() if out_rows is None else {
            index for checkpoint in history
            for index in checkpoint.object_records
        }
        scratch = self._scratch_for(records, first, last)
        body = RECORD_HEADER_BYTES  # ids start here, 8-byte aligned
        written: Optional[int] = None if out_rows is None else 0
        for index in range(first, last + 1):
            record = records[index]
            count = record.b
            applied = index in applies
            framed = record.length == count * (8 + object_bytes)
            if not (applied and framed and count):
                # A record that fails its CRC ends the log, as a torn
                # tail does.
                if self._log.read_verified(index, scratch) is None:
                    return index
                if applied and not framed:
                    raise StorageError(
                        f"OBJECTS record at offset {record.offset} holds "
                        f"{record.length} bytes, not {count} objects"
                    )
                continue
            head = scratch[: body + 8 * count]
            if self._log.read(head, record.offset) != head.nbytes:
                return index
            ids = np.frombuffer(scratch, np.int64, count=count, offset=body)
            low = int(ids[0])
            ascending = bool((ids[1:] > ids[:-1]).all())
            direct = (
                ascending and low >= 0 and ids[-1] == low + count - 1
                and low + count <= num_objects
            )
            if written is not None and not (direct and low == written):
                out_rows[written:] = 0
                written = None
            if direct:
                rows = out_rows[low: low + count]
            else:
                rows = np.frombuffer(
                    scratch, np.uint8, count=count * object_bytes,
                    offset=body + 8 * count,
                ).reshape(count, object_bytes)
            if self._log.read_verified(index, head, rows) is None:
                return index
            if not direct:
                _scatter(ids, rows, out_rows, ascending)
            elif written is not None:
                written += count
        if written is not None:
            out_rows[written:] = 0
        return None

    def restore_scan_bytes(self) -> int:
        """Log bytes from the newest committed full dump (the whole log
        without one) to the end: what a restore reads when the log ends at
        its target's commit.  Read off the record headers alone."""
        records = self._log.walk()
        first, _last = self._trusted_range(self._history(records))
        return records[-1].end - records[first].offset

    def size_bytes(self) -> int:
        """Current size of the log file."""
        return self._log.size()
