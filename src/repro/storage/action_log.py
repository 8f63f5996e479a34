"""The logical log: per-tick records enabling deterministic replay.

"Instead, we log all user actions at each tick and replay the ticks to
recover.  This allows us to recover to the precise tick at which a failure
occurred." (Section 3.1.)

Our durable engine's game logic is deterministic given the state table and
the random generator, so the logical record of one tick is simply the tick
number plus the serialized generator state *before* the tick ran (plus an
optional application payload for games that take external commands).  Replay
restores the generator and re-runs the simulation; the resulting updates are
bit-identical to the pre-crash run.

Records are CRC-framed, and the log is read the way the checkpoint log is:
*verify what you trust*.  Opening the log walks its headers only -- 29 bytes
each, parsed out of bounded reads, nothing CRC-checked or unpickled -- and
keeps every record's offset.  A header with bad magic, or a length that runs
past end of file, is the torn tail (a crash mid-append) and ends the walk.
:attr:`ActionLog.last_tick` is the newest record that passes its CRC, so a
tick is recoverable exactly when its record hit the log; the first append
after an open that found a torn tail cuts the file back to that record.
:meth:`ActionLog.records` seeks straight to the first tick asked for and
verifies only the records it yields: a replay from a checkpoint's cut reads
the ticks after the cut, never the ones before it, and a bad byte in a
record the cut made redundant cannot hide the newer ones.

Appending is two-phase: :meth:`ActionLog.append` starts a record's fsync,
:meth:`ActionLog.wait_durable` waits for it, and the tick runs in between.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

from repro.errors import CorruptCheckpointError, StorageError
from repro.storage.double_backup import resolve_fsync_policy
from repro.storage.layout import (
    RECORD_HEADER_BYTES,
    RECORD_TICK,
    pack_record,
    pread_into,
    unpack_record_header,
    verify_record,
    write_all,
)

#: Size of each read the header walk parses headers out of.
_WALK_BLOCK_BYTES = 64 << 10


@dataclass(frozen=True)
class TickRecord:
    """One logical-log entry: everything needed to re-run one tick."""

    tick: int
    #: Serialized numpy Generator state captured before the tick ran.
    rng_state: dict
    #: Application-defined extra payload (external commands, etc.).
    command_payload: bytes = b""


class ActionLog:
    """Append-only logical log of game ticks.

    Durability follows the same ``fsync_policy`` vocabulary as the
    checkpoint stores (``never`` / ``commit`` / ``always``), resolved through
    :func:`~repro.storage.double_backup.resolve_fsync_policy` so sweeps
    compare the whole write path under one policy.  Every append *is* this
    log's commit point (a tick is durable exactly when its record is down),
    so ``commit`` and ``always`` both fsync per append and ``never`` trusts
    the OS page cache.  The fsyncs run on one ``repro-log-sync`` thread
    per open log, started by the first append (so in the process that
    appends).
    """

    FILE_NAME = "actions.log"

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        sync: bool = False,
        fsync_policy: Optional[str] = None,
    ) -> None:
        self._directory = os.fspath(directory)
        self._fsync = resolve_fsync_policy(sync, fsync_policy)
        os.makedirs(self._directory, exist_ok=True)
        self._path = os.path.join(self._directory, self.FILE_NAME)
        self._handle = open(self._path, "a+b")
        self._bytes_verified = 0
        #: Header offset and (unverified) tick of every indexed record, in
        #: file order, 16 bytes a record.  The index covers the file up to
        #: ``_end``; appends land past it, and :meth:`records` walks them in
        #: when it runs, so a log that is only appended to holds no index.
        self._offsets = array("q")
        self._ticks = array("q")
        self._end = 0
        size = self._walk()
        self._last_tick = self._drop_unverified_tail()
        #: The file holds bytes past the index (a torn or corrupt tail) that
        #: the next append must cut off first.
        self._torn = size > self._end
        # The sync hand-off, both locks held at rest: append releases
        # ``_sync_requested``, the sync thread ``_synced`` after its fsync.
        self._sync_requested, self._synced = threading.Lock(), threading.Lock()
        self._sync_requested.acquire()
        self._synced.acquire()
        self._sync_thread: Optional[threading.Thread] = None
        self._syncing, self._sync_error = False, None

    def close(self) -> None:
        """Close the log file, once its pending sync has returned."""
        self._stop_sync()
        self._handle.close()

    def __enter__(self) -> "ActionLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def path(self) -> str:
        """Path of the log file."""
        return self._path

    @property
    def fsync_policy(self) -> str:
        """Active durability policy (``never`` / ``commit`` / ``always``)."""
        return self._fsync

    @property
    def last_tick(self) -> Optional[int]:
        """Tick of the newest record that passes its CRC, or None if none
        does."""
        return self._last_tick

    @property
    def bytes_verified(self) -> int:
        """Record bytes (header and payload) this object has read to
        CRC-check: the newest records at open, then whatever
        :meth:`records` yielded.  Header walks are not counted."""
        return self._bytes_verified

    def _walk(self) -> int:
        """Index the headers from ``_end`` on; returns the file's size.

        Headers are parsed out of bounded block reads, and no payload is
        CRC-checked or unpickled.  A header with bad magic, or whose length
        runs past end of file, is the torn tail and ends the walk, having
        allocated nothing for it.
        """
        fd = self._handle.fileno()
        size = os.fstat(fd).st_size
        block = memoryview(
            bytearray(min(_WALK_BLOCK_BYTES, size - self._end))
        )
        add_offset, add_tick = self._offsets.append, self._ticks.append
        offset = base = self._end
        filled = 0
        while offset + RECORD_HEADER_BYTES <= size:
            at = offset - base
            if at + RECORD_HEADER_BYTES > filled:
                base, at = offset, 0
                filled = pread_into(fd, block, offset)
                if filled < RECORD_HEADER_BYTES:
                    break
            try:
                _type, tick, _b, length, _crc = unpack_record_header(block, at)
            except CorruptCheckpointError:
                break
            end = offset + RECORD_HEADER_BYTES + length
            if end > size:
                break
            add_offset(offset)
            add_tick(tick)
            offset = end
        self._end = offset
        return size

    def _drop_unverified_tail(self) -> Optional[int]:
        """Cut the index back to its newest record that passes its CRC;
        returns that record's tick, or None when none does."""
        for index in reversed(range(len(self._offsets))):
            verified = self._read_verified(index)
            if verified is not None:
                break
        else:
            index, verified = -1, None
        if index + 1 < len(self._offsets):
            self._end = self._offsets[index + 1]
            del self._offsets[index + 1:], self._ticks[index + 1:]
        return None if verified is None else verified[0]

    def _read_verified(
        self, index: int
    ) -> Optional[Tuple[int, memoryview]]:
        """Read record ``index`` whole; ``(tick, payload)`` if it is a tick
        record that passes its CRC, else None."""
        start = self._offsets[index]
        end = (self._offsets[index + 1] if index + 1 < len(self._offsets)
               else self._end)
        frame = memoryview(bytearray(end - start))
        read = pread_into(self._handle.fileno(), frame, start)
        self._bytes_verified += read
        if read != len(frame):
            return None
        header = frame[:RECORD_HEADER_BYTES]
        payload = frame[RECORD_HEADER_BYTES:]
        try:
            record_type, tick, _b, _length, checksum = unpack_record_header(
                header
            )
        except CorruptCheckpointError:
            return None
        if record_type != RECORD_TICK or not verify_record(
            header, payload, checksum
        ):
            return None
        return tick, payload

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, record: TickRecord) -> None:
        """Write one tick record (ticks must be consecutive) and start its
        fsync, once the previous one has returned.  A failed write raises
        :class:`StorageError` and leaves :attr:`last_tick` alone."""
        self.wait_durable()
        if self._last_tick is not None and record.tick != self._last_tick + 1:
            raise StorageError(
                f"non-consecutive tick {record.tick} after {self._last_tick}"
            )
        if self._last_tick is None and record.tick < 0:
            raise StorageError(f"tick must be >= 0, got {record.tick}")
        payload = pickle.dumps(
            (record.rng_state, record.command_payload), protocol=4
        )
        try:
            if self._torn:
                # A record appended behind bytes the walk could not read
                # would never be read back: cut the file to its last
                # verified record.
                self._handle.truncate(self._end)
                self._torn = False
            # Unbuffered: a failed write leaves nothing for close to flush.
            write_all(self._handle.fileno(),
                      (pack_record(RECORD_TICK, record.tick, 0, payload),))
        except OSError as error:
            raise StorageError(
                f"action log write of tick {record.tick} failed: {error}"
            ) from error
        self._last_tick = record.tick
        if self._fsync != "never":
            # Each append is this log's commit point, so the "commit" and
            # "always" policies coincide here.
            if self._sync_thread is None:
                self._sync_thread = threading.Thread(
                    target=self._sync_loop, args=(self._handle.fileno(),),
                    name="repro-log-sync", daemon=True,
                )
                self._sync_thread.start()
            self._syncing = True
            self._sync_requested.release()

    def wait_durable(self) -> float:
        """Block until the newest record's fsync has returned; returns the
        seconds blocked (0.0 with none pending, so always under
        ``never``).  Raises :class:`StorageError` if that fsync failed."""
        if not self._syncing:
            return 0.0
        started = time.perf_counter()
        self._synced.acquire()
        self._syncing = False
        error, self._sync_error = self._sync_error, None
        if error is not None:
            raise StorageError(f"action log fsync failed: {error}") from error
        return time.perf_counter() - started

    def _sync_loop(self, fd: int) -> None:
        while True:
            self._sync_requested.acquire()
            if self._sync_thread is None:
                return
            try:
                os.fsync(fd)
            except OSError as error:
                self._sync_error = error
            self._synced.release()

    def _stop_sync(self) -> None:
        """Wait out a pending sync (its error dropped), join the thread."""
        thread = self._sync_thread
        if thread is not None:
            with contextlib.suppress(StorageError):
                self.wait_durable()
            # Cleared only now: the thread reads it after each request.
            self._sync_thread = None
            self._sync_requested.release()
            thread.join()

    # ------------------------------------------------------------------
    # Reading / replay
    # ------------------------------------------------------------------

    def records(self, start_tick: int = 0) -> Iterator[TickRecord]:
        """Yield complete records with ``tick >= start_tick``, oldest first.

        Seeks straight to the first indexed record at or after
        ``start_tick`` -- no record before it is read -- then reads, CRCs
        and unpickles one record at a time, only the records it yields.
        Stops at the first that fails its CRC: nothing from there on is
        trusted.  When that record is older than :attr:`last_tick`, the log
        has a hole, and it is the caller's to refuse a replay that stops
        short of :attr:`last_tick`.
        """
        if not self._torn:
            # Torn, the file past the index is the tail open dropped;
            # otherwise it is what was appended since the last walk.
            self._walk()
        ticks = self._ticks
        first = len(ticks)
        while first and ticks[first - 1] >= start_tick:
            first -= 1
        for index in range(first, len(ticks)):
            verified = self._read_verified(index)
            if verified is None:
                return
            tick, payload = verified
            rng_state, command_payload = pickle.loads(payload)
            yield TickRecord(
                tick=tick, rng_state=rng_state, command_payload=command_payload
            )

    def truncate(self) -> None:
        """Erase the log (used after a checkpoint makes old ticks redundant in
        tests; production engines would archive instead)."""
        self._stop_sync()
        self._handle.seek(0)
        self._handle.truncate(0)
        self._handle.flush()
        del self._offsets[:], self._ticks[:]
        self._end = 0
        self._torn = False
        self._last_tick = None
