"""Append-only checkpoint log for the Partial-Redo methods.

"Partial-Redo writes dirty objects to a simple log [9].  Note that while the
log organization allows us to use a sequential write pattern, we may have to
read more of the log in order to find all objects necessary to reconstruct a
full consistent checkpoint." (Section 3.2.)

The log is a sequence of framed records::

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
"""

from __future__ import annotations

import contextlib
import os
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.config import StateGeometry
from repro.errors import (
    CorruptCheckpointError,
    NoConsistentCheckpointError,
    StorageError,
)
from repro.obs.trace import get_tracer
from repro.storage.double_backup import (
    resolve_fsync_policy,
    restore_destination,
)
from repro.storage.layout import (
    GEOMETRY_BYTES,
    RECORD_CHECKPOINT_BEGIN,
    RECORD_CHECKPOINT_COMMIT,
    RECORD_HEADER_BYTES,
    RECORD_OBJECTS,
    fsync_directory,
    pack_geometry,
    pack_record,
    pack_record_parts,
    pread_into,
    unpack_geometry,
    unpack_record_header,
    verify_record,
    write_all,
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


class _Record(NamedTuple):
    """One framed record as the header walk saw it (nothing verified)."""

    offset: int  # of the header
    type: int
    a: int
    b: int
    length: int
    checksum: int

    @property
    def end(self) -> int:
        return self.offset + RECORD_HEADER_BYTES + self.length


@dataclass
class _LogCheckpoint:
    """Parsed view of one checkpoint's records in the log."""

    epoch: int
    is_full_dump: bool
    committed: bool
    cut_tick: int
    #: Index (into the walked record list) of each OBJECTS record.
    object_records: List[int]
    #: Indices of the BEGIN record and of the last record (COMMIT once
    #: committed) in the walked record list.
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
        sync: bool = False,
        fsync_policy: Optional[str] = None,
    ) -> None:
        self._directory = os.fspath(directory)
        self._geometry = geometry
        self._fsync = resolve_fsync_policy(sync, fsync_policy)
        #: Test hook: called before every object append; raising from it
        #: emulates a writer killed mid-flush (fault injection).
        self.write_fault_hook: Optional[Callable[[], None]] = None
        self._bytes_read = 0
        os.makedirs(self._directory, exist_ok=True)
        self._path = os.path.join(self._directory, self.FILE_NAME)
        self._next_path = self._path + ".next"
        # A full dump that never committed: the log it was to replace is
        # still the committed one.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self._next_path)
        fresh = not os.path.exists(self._path) or os.path.getsize(self._path) == 0
        self._handle = open(self._path, "a+b")
        #: The full dump being written, while one is (see begin_checkpoint).
        self._next: Optional[BinaryIO] = None
        try:
            if fresh:
                self._append_parts([self._geometry_record()])
            else:
                self._verify_geometry()
        except BaseException:
            self._handle.close()
            raise
        self._writing_epoch: Optional[int] = None

    def close(self) -> None:
        """Close the log file (an unfinished full dump's file stays on disk
        until the next open removes it)."""
        if self._next is not None:
            self._next.close()
        self._handle.close()

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

    def _geometry_record(self) -> bytes:
        return pack_record(
            RECORD_CHECKPOINT_BEGIN, _GEOMETRY_RECORD, 0,
            pack_geometry(self._geometry),
        )

    def _append_parts(self, parts: List, committing: bool = False) -> None:
        """Gathered append of framed records without concatenating them.

        Records go to the full dump being written, if there is one, else to
        the log.  Both handles are in append mode and never buffer a write,
        so the raw fd lands all parts at the end of the file in one
        ``writev``.  A ``committing`` append carries a commit marker, so it
        must reach stable storage under the ``commit`` policy as well as
        ``always``; a committed full dump then replaces the log.
        """
        target = self._next or self._handle
        write_all(target.fileno(), parts)
        if self._fsync == "always" or (committing and self._fsync == "commit"):
            os.fsync(target.fileno())
        if committing and self._next is not None:
            self._install_next()

    def _install_next(self) -> None:
        """Make the committed full dump the log: rename it over the log,
        make the rename durable, then read and append through it."""
        os.replace(self._next_path, self._path)
        if self._fsync != "never":
            fsync_directory(self._directory)
        self._handle.close()
        self._handle, self._next = self._next, None

    def _verify_geometry(self) -> None:
        record = memoryview(bytearray(_GEOMETRY_RECORD_BYTES))
        header = record[:RECORD_HEADER_BYTES]
        payload = record[RECORD_HEADER_BYTES:]
        # A short read leaves zeros behind, which fail the magic check.
        self._pread(self._read_fd(), record, 0)
        try:
            record_type, a, _b, length, checksum = unpack_record_header(header)
        except CorruptCheckpointError:
            record_type = None
        if (
            record_type != RECORD_CHECKPOINT_BEGIN
            or a != _GEOMETRY_RECORD
            or length != GEOMETRY_BYTES
            or not verify_record(header, payload, checksum)
        ):
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
        begin = pack_record(
            RECORD_CHECKPOINT_BEGIN, epoch, int(is_full_dump), b""
        )
        if is_full_dump and self.size_bytes() > _GEOMETRY_RECORD_BYTES:
            self._next = open(self._next_path, "a+b")
            # In progress from here: a failed write is aborted like any other.
            self._writing_epoch = epoch
            self._append_parts([self._geometry_record(), begin])
        else:
            self._append_parts([begin])
        self._writing_epoch = epoch

    def _validated_run(self, object_ids: np.ndarray, payloads):
        """Fault-hook, id-range, and length checks shared by both append
        paths; returns ``(ids, payload_view)`` (``None`` for an empty run)."""
        if self.write_fault_hook is not None:
            self.write_fault_hook()
        object_ids = np.ascontiguousarray(object_ids, dtype=np.int64)
        object_bytes = self._geometry.object_bytes
        payload_view = memoryview(payloads)
        if payload_view.nbytes != object_ids.size * object_bytes:
            raise StorageError(
                f"payload length {payload_view.nbytes} does not match "
                f"{object_ids.size} objects of {object_bytes} bytes"
            )
        if object_ids.size == 0:
            return None
        if object_ids.min() < 0 or object_ids.max() >= self._geometry.num_objects:
            raise StorageError("object id out of range")
        return object_ids, payload_view.cast("B")

    def append_objects(self, object_ids: np.ndarray, payloads) -> None:
        """Append one run of object versions to the in-progress checkpoint.

        ``payloads`` is any contiguous bytes-like buffer holding
        ``len(object_ids)`` back-to-back object images.  Header, ids, and
        payload go down in one gathered write -- the record is never
        assembled in memory.
        """
        if self._writing_epoch is None:
            raise StorageError("append_objects outside begin/commit")
        run = self._validated_run(object_ids, payloads)
        if run is None:
            return
        object_ids, payload_view = run
        self._append_parts(
            pack_record_parts(
                RECORD_OBJECTS,
                self._writing_epoch,
                object_ids.size,
                [object_ids, payload_view],
            )
        )

    def write_checkpoint_vectored(
        self, object_ids: np.ndarray, rows, cut_tick: Optional[int]
    ) -> int:
        """Land a staged write set and its commit marker in one gathered write.

        ``rows`` holds the objects' payloads in ``object_ids`` order (the
        writer's slab), validated (and fault-hook checked) exactly like an
        :meth:`append_objects` call.  It is framed as one OBJECTS record per
        :data:`OBJECTS_PER_RECORD` objects over slices of ``rows`` -- never
        copied -- and every record *and* the commit marker go to one
        ``writev`` (split only at ``IOV_MAX``), made durable by at most one
        ``fsync`` under the ``commit``/``always`` policies.
        ``cut_tick=None`` lands the records uncommitted (a slab of a job
        bigger than the writer's slab).

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
        parts: List = []
        payload_bytes = 0
        run = self._validated_run(object_ids, rows)
        if run is not None:
            object_ids, payload_view = run
            payload_bytes = payload_view.nbytes
            record_bytes = OBJECTS_PER_RECORD * self._geometry.object_bytes
            for first in range(0, object_ids.size, OBJECTS_PER_RECORD):
                ids = object_ids[first: first + OBJECTS_PER_RECORD]
                offset = first * self._geometry.object_bytes
                parts.extend(pack_record_parts(
                    RECORD_OBJECTS, self._writing_epoch, ids.size,
                    [ids, payload_view[offset: offset + record_bytes]],
                ))
        if cut_tick is not None:
            parts.append(pack_record(
                RECORD_CHECKPOINT_COMMIT, self._writing_epoch, cut_tick, b""
            ))
        with get_tracer().span(
            "log_writev",
            epoch=self._writing_epoch,
            cut=cut_tick,
            bytes=payload_bytes,
            iovecs=len(parts),
        ):
            self._append_parts(parts, committing=cut_tick is not None)
        if cut_tick is not None:
            self._writing_epoch = None
        return payload_bytes

    def commit_checkpoint(self, tick: int) -> None:
        """Append the commit record; the checkpoint is now recoverable."""
        if self._writing_epoch is None:
            raise StorageError("commit_checkpoint without begin_checkpoint")
        self._append_parts(
            [pack_record(RECORD_CHECKPOINT_COMMIT, self._writing_epoch, tick,
                         b"")],
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
        return self._bytes_read

    def _read_fd(self) -> int:
        """The raw fd for positioned reads, with buffered appends flushed."""
        self._handle.flush()
        return self._handle.fileno()

    def _pread(self, fd: int, buffer, offset: int) -> int:
        """Every read of the log goes through here: :func:`pread_into`,
        counted into :attr:`bytes_read`."""
        read = pread_into(fd, buffer, offset)
        self._bytes_read += read
        return read

    def _walk(self, fd: int) -> List[_Record]:
        """Header-only pass over the log: every framed record, in file order.

        Hops from header to header and reads no payload.  A header with bad
        magic, or whose ``length`` runs past the end of the file, is the torn
        tail: the walk stops there having allocated nothing for it.  Nothing
        is CRC-checked here -- callers verify the records they go on to trust
        with :meth:`_read_verified`.
        """
        size = os.fstat(fd).st_size
        header = bytearray(RECORD_HEADER_BYTES)
        records: List[_Record] = []
        offset = 0
        while offset + RECORD_HEADER_BYTES <= size:
            if self._pread(fd, header, offset) != RECORD_HEADER_BYTES:
                break
            try:
                fields = unpack_record_header(header)
            except CorruptCheckpointError:
                break
            record = _Record(offset, *fields)
            if record.end > size:
                break
            records.append(record)
            offset = record.end
        return records

    @staticmethod
    def _checkpoints(records: List[_Record]) -> List[_LogCheckpoint]:
        """Group walked records into checkpoints, in file order.

        A checkpoint is a BEGIN record and the OBJECTS / COMMIT records of
        the same epoch that follow it before the next BEGIN; the writer
        appends one checkpoint at a time, so file order is history order.
        """
        checkpoints: List[_LogCheckpoint] = []
        current: Optional[_LogCheckpoint] = None
        for index, record in enumerate(records):
            if record.type == RECORD_CHECKPOINT_BEGIN:
                if record.a == _GEOMETRY_RECORD:
                    continue
                current = _LogCheckpoint(
                    epoch=record.a,
                    is_full_dump=bool(record.b),
                    committed=False,
                    cut_tick=-1,
                    object_records=[],
                    first_record=index,
                    last_record=index,
                )
                checkpoints.append(current)
            elif current is not None and record.a == current.epoch:
                if record.type == RECORD_OBJECTS:
                    current.object_records.append(index)
                elif record.type == RECORD_CHECKPOINT_COMMIT:
                    current.committed = True
                    current.cut_tick = record.b
                else:
                    continue
                current.last_record = index
                if current.committed:
                    current = None
        return checkpoints

    def _history(self, records: List[_Record]) -> List[_LogCheckpoint]:
        """The committed checkpoints a restore applies, oldest first.

        The last one is the target (the newest committed checkpoint); the
        first is the newest committed full dump at or before it -- nothing
        older can contribute a byte -- or the log's first committed
        checkpoint when no full dump exists.
        """
        committed = [c for c in self._checkpoints(records) if c.committed]
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
    def _scratch_for(records: List[_Record], first: int, last: int):
        """One reusable buffer that fits any record of ``[first, last]``."""
        longest = max(record.length for record in records[first: last + 1])
        return memoryview(
            np.empty(_SCRATCH_PAD + RECORD_HEADER_BYTES + longest, np.uint8)
        )

    def _read_verified(
        self, fd: int, record: _Record, scratch: memoryview
    ) -> Optional[memoryview]:
        """Read one whole record into ``scratch`` and CRC it in place.

        Returns the payload view (8-byte aligned within ``scratch``), or
        None when the record is short or fails its CRC -- the log ends at
        such a record exactly as it does at a torn tail.
        """
        whole = scratch[
            _SCRATCH_PAD: _SCRATCH_PAD + RECORD_HEADER_BYTES + record.length
        ]
        if self._pread(fd, whole, record.offset) != whole.nbytes:
            return None
        header = whole[:RECORD_HEADER_BYTES]
        payload = whole[RECORD_HEADER_BYTES:]
        if not verify_record(header, payload, record.checksum):
            return None
        return payload

    def latest_committed(self) -> Tuple[int, int]:
        """``(epoch, cut_tick)`` of the newest committed checkpoint.

        Every record a restore of it relies on is verified first; one that
        fails ends the log there, and the history is resolved again over
        the shortened log until a fully verified one is found.
        """
        fd = self._read_fd()
        records = self._walk(fd)
        while True:
            history = self._history(records)
            first, last = self._trusted_range(history)
            scratch = self._scratch_for(records, first, last)
            for index in range(first, last + 1):
                if self._read_verified(fd, records[index], scratch) is None:
                    del records[index:]
                    break
            else:
                return history[-1].epoch, history[-1].cut_tick

    def restore_image(self, out=None) -> Tuple[object, int, int]:
        """Reconstruct the newest committed checkpoint image into ``out``.

        ``out`` is any writable contiguous buffer of exactly
        ``num_objects * object_bytes`` bytes (recovery passes
        :meth:`GameStateTable.image_buffer`, so rows land in the table with
        no staging image); without it the same code fills a fresh
        ``bytearray``.  Returns ``(image, epoch, cut_tick)`` where ``image``
        is ``out`` or that new buffer.

        A header-only walk finds the committed checkpoints; records are then
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
        fd = self._read_fd()
        records = self._walk(fd)
        restarted = False
        while True:
            try:
                history = self._history(records)
            except NoConsistentCheckpointError:
                if restarted:
                    out_rows[:] = 0
                raise
            corrupt = self._fill(fd, records, history, out_rows)
            if corrupt is None:
                target = history[-1]
                return image, target.epoch, target.cut_tick
            del records[corrupt:]
            restarted = True

    def _fill(
        self, fd: int, records: List[_Record], history: List[_LogCheckpoint],
        out_rows: np.ndarray,
    ) -> Optional[int]:
        """One file-order pass of :meth:`restore_image` over ``history``.

        Returns the index of the first record found corrupt (the caller
        shortens the log and retries), else None with ``out_rows`` complete.
        While the applied records land one contiguous prefix ``[0, written)``
        (a full dump's all of it) the rest of ``out_rows`` is left as it is;
        it is zeroed before the first record that lands anywhere else.
        """
        num_objects, object_bytes = out_rows.shape
        first, last = self._trusted_range(history)
        applies = {
            index for checkpoint in history
            for index in checkpoint.object_records
        }
        scratch = self._scratch_for(records, first, last)
        body = _SCRATCH_PAD + RECORD_HEADER_BYTES  # ids start here, aligned
        written: Optional[int] = 0
        for index in range(first, last + 1):
            record = records[index]
            count = record.b
            applied = index in applies
            framed = record.length == count * (8 + object_bytes)
            if not (applied and framed and count):
                if self._read_verified(fd, record, scratch) is None:
                    return index
                if applied and not framed:
                    raise StorageError(
                        f"OBJECTS record at offset {record.offset} holds "
                        f"{record.length} bytes, not {count} objects"
                    )
                continue
            head = scratch[_SCRATCH_PAD: body + 8 * count]
            if self._pread(fd, head, record.offset) != head.nbytes:
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
            landed = self._pread(fd, rows, record.offset + head.nbytes)
            if landed != rows.nbytes:
                return index
            checksum = zlib.crc32(head[:RECORD_HEADER_BYTES - 4])
            if zlib.crc32(rows, zlib.crc32(ids, checksum)) != record.checksum:
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
        records = self._walk(self._read_fd())
        first, _last = self._trusted_range(self._history(records))
        return records[-1].end - records[first].offset

    def size_bytes(self) -> int:
        """Current size of the log file."""
        self._handle.seek(0, os.SEEK_END)
        return self._handle.tell()
