"""Append-only checkpoint log for the Partial-Redo methods.

"Partial-Redo writes dirty objects to a simple log [9].  Note that while the
log organization allows us to use a sequential write pattern, we may have to
read more of the log in order to find all objects necessary to reconstruct a
full consistent checkpoint." (Section 3.2.)

The log is a sequence of framed records::

    CHECKPOINT_BEGIN  (epoch, is_full_dump)
    OBJECTS           (epoch, first_object_id_count) + [ids][payloads]
    CHECKPOINT_COMMIT (epoch, cut_tick)

Recovery finds the last committed epoch, then reconstructs the image from the
latest committed version of every object at or before that epoch.  Because a
full dump is appended every ``C`` checkpoints, the scan never needs to reach
further back than ``C`` checkpoints -- the ``(k*C + n)`` restore cost the
simulator charges.  :meth:`restore_scan_bytes` reports how many log bytes a
backwards scan would touch, which the validation experiments compare against
the model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.config import StateGeometry
from repro.errors import NoConsistentCheckpointError, StorageError
from repro.obs.trace import get_tracer
from repro.state.dirty import unique_ids
from repro.storage.double_backup import (
    RESTORE_REGION_OBJECTS,
    StreamingRestore,
    resolve_fsync_policy,
)
from repro.storage.layout import (
    RECORD_CHECKPOINT_BEGIN,
    RECORD_CHECKPOINT_COMMIT,
    RECORD_HEADER_BYTES,
    RECORD_OBJECTS,
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


@dataclass
class _LogCheckpoint:
    """Parsed view of one checkpoint's records in the log."""

    epoch: int
    is_full_dump: bool
    committed: bool
    cut_tick: int
    #: (file offset of ids, object count) for each OBJECTS record.
    object_runs: List[Tuple[int, int]]
    begin_offset: int
    end_offset: int


class CheckpointLogStore:
    """A simple sequential checkpoint log with periodic full dumps."""

    FILE_NAME = "checkpoints.log"

    #: Default streaming granularity for :meth:`compact` rewrites.
    COMPACT_CHUNK_BYTES = 1 << 20

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
        os.makedirs(self._directory, exist_ok=True)
        self._path = os.path.join(self._directory, self.FILE_NAME)
        fresh = not os.path.exists(self._path) or os.path.getsize(self._path) == 0
        self._handle = open(self._path, "a+b")
        if fresh:
            self._append(
                pack_record(
                    RECORD_CHECKPOINT_BEGIN,
                    _GEOMETRY_RECORD,
                    0,
                    pack_geometry(geometry),
                )
            )
        else:
            self._verify_geometry()
        self._writing_epoch: Optional[int] = None

    def close(self) -> None:
        """Close the log file."""
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

    def _append(self, data: bytes, committing: bool = False) -> None:
        self._handle.seek(0, os.SEEK_END)
        self._handle.write(data)
        self._handle.flush()
        if self._fsync == "always" or (committing and self._fsync == "commit"):
            os.fsync(self._handle.fileno())

    def _append_parts(self, parts: List, committing: bool = False) -> None:
        """Gathered append of framed records without concatenating them.

        The handle is opened in append mode, so after a flush the raw fd
        lands all parts at the end of the file in one ``writev``.  A
        ``committing`` append carries a commit marker, so it must reach
        stable storage under the ``commit`` policy as well as ``always`` --
        the same discipline as :meth:`_append`.
        """
        self._handle.flush()
        write_all(self._handle.fileno(), parts)
        if self._fsync == "always" or (committing and self._fsync == "commit"):
            os.fsync(self._handle.fileno())

    def _verify_geometry(self) -> None:
        self._handle.seek(0)
        header = self._handle.read(RECORD_HEADER_BYTES)
        record_type, a, _b, length, checksum = unpack_record_header(header)
        payload = self._handle.read(length)
        if (
            record_type != RECORD_CHECKPOINT_BEGIN
            or a != _GEOMETRY_RECORD
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
        """Append the begin record of checkpoint ``epoch``."""
        if self._writing_epoch is not None:
            raise StorageError(
                f"checkpoint {self._writing_epoch} already in progress"
            )
        if epoch <= 0:
            raise StorageError(f"epoch must be positive, got {epoch}")
        self._append(
            pack_record(RECORD_CHECKPOINT_BEGIN, epoch, int(is_full_dump), b"")
        )
        self._writing_epoch = epoch

    def _validated_run(self, object_ids: np.ndarray, payloads):
        """Fault-hook, id-range, and length checks shared by both append
        paths; returns ``(ids, payload_view)`` (``None`` for an empty run)."""
        if self.write_fault_hook is not None:
            self.write_fault_hook()
        object_ids = np.ascontiguousarray(object_ids, dtype=np.int64)
        object_bytes = self._geometry.object_bytes
        payload_view = memoryview(payloads).cast("B")
        if payload_view.nbytes != object_ids.size * object_bytes:
            raise StorageError(
                f"payload length {payload_view.nbytes} does not match "
                f"{object_ids.size} objects of {object_bytes} bytes"
            )
        if object_ids.size == 0:
            return None
        if object_ids.min() < 0 or object_ids.max() >= self._geometry.num_objects:
            raise StorageError("object id out of range")
        return object_ids, payload_view

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

    def write_checkpoint_vectored(self, chunks, cut_tick: int) -> int:
        """Land the whole in-progress checkpoint in one gathered write.

        ``chunks`` is a sequence of ``(object_ids, payloads)`` runs, each
        validated (and fault-hook checked) exactly like an
        :meth:`append_objects` call.  Every OBJECTS record *and* the commit
        marker are framed into a single iovec and handed to one ``writev``
        (split only at ``IOV_MAX``), then made durable by at most one
        ``fsync`` under the ``commit``/``always`` policies -- instead of one
        write (and, under ``always``, one fsync) per run.

        The commit marker is the final entry of the iovec and ``writev``
        lands buffers in order, so a torn write can truncate the checkpoint
        but can never produce a commit marker ahead of its data: recovery
        sees either a fully committed checkpoint or an uncommitted tail it
        already knows to ignore.  Returns the number of payload bytes
        written and ends the in-progress checkpoint.
        """
        if self._writing_epoch is None:
            raise StorageError(
                "write_checkpoint_vectored outside begin/commit"
            )
        parts: List = []
        payload_bytes = 0
        for object_ids, payloads in chunks:
            run = self._validated_run(object_ids, payloads)
            if run is None:
                continue
            object_ids, payload_view = run
            parts.extend(
                pack_record_parts(
                    RECORD_OBJECTS,
                    self._writing_epoch,
                    object_ids.size,
                    [object_ids, payload_view],
                )
            )
            payload_bytes += payload_view.nbytes
        parts.append(
            pack_record(
                RECORD_CHECKPOINT_COMMIT, self._writing_epoch, cut_tick, b""
            )
        )
        with get_tracer().span(
            "log_writev",
            epoch=self._writing_epoch,
            cut=cut_tick,
            bytes=payload_bytes,
            iovecs=len(parts),
        ):
            self._append_parts(parts, committing=True)
        self._writing_epoch = None
        return payload_bytes

    def commit_checkpoint(self, tick: int) -> None:
        """Append the commit record; the checkpoint is now recoverable."""
        if self._writing_epoch is None:
            raise StorageError("commit_checkpoint without begin_checkpoint")
        self._append(
            pack_record(RECORD_CHECKPOINT_COMMIT, self._writing_epoch, tick, b""),
            committing=True,
        )
        self._writing_epoch = None

    def abort_checkpoint(self) -> None:
        """Abandon the in-progress checkpoint (its records stay uncommitted)."""
        if self._writing_epoch is None:
            raise StorageError("abort_checkpoint without begin_checkpoint")
        self._writing_epoch = None

    # ------------------------------------------------------------------
    # Scanning and recovery
    # ------------------------------------------------------------------

    def _scan(self) -> List[_LogCheckpoint]:
        """Parse the whole log, stopping cleanly at a torn tail."""
        checkpoints: List[_LogCheckpoint] = []
        by_epoch: Dict[int, _LogCheckpoint] = {}
        handle = self._handle
        handle.seek(0)
        offset = 0
        while True:
            header = handle.read(RECORD_HEADER_BYTES)
            if len(header) < RECORD_HEADER_BYTES:
                break
            try:
                record_type, a, b, length, checksum = unpack_record_header(header)
            except Exception:
                break  # torn tail
            payload_offset = offset + RECORD_HEADER_BYTES
            payload = handle.read(length)
            if len(payload) < length or not verify_record(header, payload, checksum):
                break  # torn tail
            next_offset = payload_offset + length
            if record_type == RECORD_CHECKPOINT_BEGIN and a != _GEOMETRY_RECORD:
                checkpoint = _LogCheckpoint(
                    epoch=a,
                    is_full_dump=bool(b),
                    committed=False,
                    cut_tick=-1,
                    object_runs=[],
                    begin_offset=offset,
                    end_offset=next_offset,
                )
                checkpoints.append(checkpoint)
                by_epoch[a] = checkpoint
            elif record_type == RECORD_OBJECTS:
                checkpoint = by_epoch.get(a)
                if checkpoint is not None:
                    checkpoint.object_runs.append((payload_offset, b))
                    checkpoint.end_offset = next_offset
            elif record_type == RECORD_CHECKPOINT_COMMIT:
                checkpoint = by_epoch.get(a)
                if checkpoint is not None:
                    checkpoint.committed = True
                    checkpoint.cut_tick = b
                    checkpoint.end_offset = next_offset
            offset = next_offset
            handle.seek(offset)
        return checkpoints

    def latest_committed(self) -> Tuple[int, int]:
        """``(epoch, cut_tick)`` of the newest committed checkpoint."""
        committed = [c for c in self._scan() if c.committed]
        if not committed:
            raise NoConsistentCheckpointError(
                f"no committed checkpoint in {self._path}"
            )
        last = max(committed, key=lambda c: c.epoch)
        return last.epoch, last.cut_tick

    def restore_image_streaming(
        self, region_objects: Optional[int] = None
    ) -> StreamingRestore:
        """Newest committed checkpoint as a :class:`StreamingRestore`.

        One metadata pass resolves, for every object, which OBJECTS record
        holds its latest committed version at or before the recovered epoch
        (the state a backwards scan would reconstruct), entirely with sorted
        numpy id arrays -- no per-object Python loop.  The regions iterator
        then reads only the winning payload spans via positioned reads, in
        ascending object-id order; objects never written (possible only if
        the log lacks a full dump) come out zero-filled.
        """
        if region_objects is None:
            region_objects = RESTORE_REGION_OBJECTS
        if region_objects <= 0:
            raise StorageError(
                f"region_objects must be positive, got {region_objects}"
            )
        checkpoints = self._scan()
        committed = [c for c in checkpoints if c.committed]
        if not committed:
            raise NoConsistentCheckpointError(
                f"no committed checkpoint in {self._path}"
            )
        target = max(committed, key=lambda c: c.epoch)
        # Runs in replay order: epoch ascending, submission order within a
        # checkpoint.  Later runs beat earlier ones for duplicated ids.
        runs: List[Tuple[int, int]] = []
        for checkpoint in sorted(committed, key=lambda c: c.epoch):
            if checkpoint.epoch > target.epoch:
                continue
            runs.extend(checkpoint.object_runs)
        winners = self._resolve_winners(runs)
        return StreamingRestore(
            epoch=target.epoch,
            cut_tick=target.cut_tick,
            num_objects=self._geometry.num_objects,
            regions=self._stream_regions(runs, winners, region_objects),
        )

    def _resolve_winners(self, runs: List[Tuple[int, int]]):
        """Last-writer-wins resolution over ``runs`` (in apply order).

        Returns ``(object_ids, run_of, pos_of)``: the sorted unique ids with
        any committed version, and for each the index of the winning run and
        the row position within that run's payload.
        """
        self._handle.flush()
        fd = self._handle.fileno()
        ids_parts = []
        for payload_offset, count in runs:
            ids = np.empty(count, dtype=np.int64)
            read = pread_into(fd, ids, payload_offset)
            if read != ids.nbytes:
                raise StorageError(
                    f"log truncated reading ids at offset {payload_offset}"
                )
            ids_parts.append(ids)
        if not ids_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        counts = np.array([ids.size for ids in ids_parts], dtype=np.int64)
        part_starts = np.concatenate(([0], np.cumsum(counts)))
        all_ids = np.concatenate(ids_parts)
        # Stable sort keeps apply order among duplicates; keeping the last
        # occurrence of each id selects the winning (newest) version.
        order = np.argsort(all_ids, kind="stable")
        sorted_ids = all_ids[order]
        keep = np.concatenate((np.diff(sorted_ids) != 0, [True]))
        object_ids = sorted_ids[keep]
        source = order[keep]
        run_of = np.searchsorted(part_starts, source, side="right") - 1
        pos_of = source - part_starts[run_of]
        return object_ids, run_of, pos_of

    def _stream_regions(
        self, runs, winners, region_objects: int
    ) -> Iterator[Tuple[int, int, bytearray]]:
        """Yield winning payloads gathered into ascending id regions.

        Per region, each contributing run is read once as the span covering
        its winning rows (one positioned read) and the rows are scattered
        into the region buffer with a single fancy-indexed assignment.
        """
        object_ids, run_of, pos_of = winners
        geometry = self._geometry
        object_bytes = geometry.object_bytes
        num_objects = geometry.num_objects
        self._handle.flush()
        fd = self._handle.fileno()
        for start in range(0, num_objects, region_objects):
            count = min(region_objects, num_objects - start)
            buffer = bytearray(count * object_bytes)
            lo, hi = np.searchsorted(object_ids, (start, start + count))
            if lo != hi:
                region_rows = np.frombuffer(buffer, dtype=np.uint8).reshape(
                    count, object_bytes
                )
                slot = object_ids[lo:hi] - start
                run_sel = run_of[lo:hi]
                pos_sel = pos_of[lo:hi]
                for run_index in unique_ids(run_sel):
                    mask = run_sel == run_index
                    positions = pos_sel[mask]
                    first = int(positions.min())
                    last = int(positions.max())
                    payload_offset, run_count = runs[run_index]
                    span = np.empty(
                        (last - first + 1, object_bytes), dtype=np.uint8
                    )
                    offset = (
                        payload_offset + run_count * 8 + first * object_bytes
                    )
                    read = pread_into(fd, span, offset)
                    if read != span.nbytes:
                        raise StorageError(
                            f"log truncated reading payloads at offset {offset}"
                        )
                    region_rows[slot[mask]] = span[positions - first]
            yield start, count, buffer

    def restore_image(self) -> Tuple[bytes, int, int]:
        """Reconstruct the newest committed checkpoint image.

        Returns ``(image_bytes, epoch, cut_tick)``.  Built on
        :meth:`restore_image_streaming`; the regions are concatenated into
        one contiguous image for callers that want the whole state at once.
        """
        restore = self.restore_image_streaming()
        object_bytes = self._geometry.object_bytes
        image = bytearray(restore.num_objects * object_bytes)
        for start, count, payload in restore.regions:
            offset = start * object_bytes
            image[offset: offset + count * object_bytes] = payload
        return bytes(image), restore.epoch, restore.cut_tick

    def restore_scan_bytes(self) -> int:
        """Bytes a backwards restore scan reads: from the end of the log back
        to the beginning of the newest committed full dump (or the whole log
        if none exists)."""
        checkpoints = self._scan()
        committed = [c for c in checkpoints if c.committed]
        if not committed:
            raise NoConsistentCheckpointError(
                f"no committed checkpoint in {self._path}"
            )
        end = max(c.end_offset for c in checkpoints)
        full_dumps = [c for c in committed if c.is_full_dump]
        if full_dumps:
            start = max(full_dumps, key=lambda c: c.epoch).begin_offset
        else:
            start = 0
        return end - start

    def size_bytes(self) -> int:
        """Current size of the log file."""
        self._handle.seek(0, os.SEEK_END)
        return self._handle.tell()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self, chunk_bytes: Optional[int] = None) -> int:
        """Drop log prefix made redundant by the newest committed full dump.

        Everything before that full dump's begin record can never be read by
        recovery again (the backwards scan stops at the full dump), so it is
        rewritten away.  The surviving tail is streamed into the replacement
        file in bounded ``chunk_bytes`` pieces (default
        :attr:`COMPACT_CHUNK_BYTES`), so compaction never materializes the
        tail in memory no matter how large the log has grown.  Returns the
        number of bytes reclaimed.  No-op (0) when there is no committed full
        dump or no in-progress-free prefix to drop.  Must not be called while
        a checkpoint is being written.
        """
        if self._writing_epoch is not None:
            raise StorageError("cannot compact while a checkpoint is in progress")
        if chunk_bytes is None:
            chunk_bytes = self.COMPACT_CHUNK_BYTES
        if chunk_bytes <= 0:
            raise StorageError(
                f"chunk_bytes must be positive, got {chunk_bytes}"
            )
        checkpoints = self._scan()
        full_dumps = [c for c in checkpoints if c.committed and c.is_full_dump]
        if not full_dumps:
            return 0
        cut = max(full_dumps, key=lambda c: c.epoch).begin_offset
        if cut <= 0:
            return 0
        # Rewrite: geometry record + everything from the cut onwards, via a
        # temp file swapped in atomically.
        temp_path = self._path + ".compact"
        with open(temp_path, "wb") as temp:
            temp.write(
                pack_record(
                    RECORD_CHECKPOINT_BEGIN,
                    _GEOMETRY_RECORD,
                    0,
                    pack_geometry(self._geometry),
                )
            )
            self._handle.seek(cut)
            while True:
                chunk = self._handle.read(chunk_bytes)
                if not chunk:
                    break
                temp.write(chunk)
            temp.flush()
            if self._fsync != "never":
                os.fsync(temp.fileno())
        old_size = self.size_bytes()
        self._handle.close()
        os.replace(temp_path, self._path)
        self._handle = open(self._path, "a+b")
        return old_size - self.size_bytes()
