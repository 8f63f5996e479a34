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

The log is one segment per checkpoint period: at a cut at tick ``c``,
:meth:`ActionLog.roll` renames the live ``actions.log`` after its first
tick, ``actions.<tick>.log``, and opens a fresh one for tick ``c + 1``.
Records are CRC-framed, and the log is read the way the checkpoint log is:
*verify what you trust*.  Opening walks the live segment's headers only --
29 bytes each, parsed out of bounded reads, nothing CRC-checked or
unpickled -- and lists sealed ones by name only when a read needs them,
so it costs one period, not the uptime.  A header with bad magic, or a
length that runs past end of file, is the torn tail (a crash mid-append)
and ends the walk.  :attr:`ActionLog.last_tick` is the newest record that
passes its CRC, in the newest segment that has one, so a tick is
recoverable exactly when its record hit the log; the first append after
an open that found a torn tail cuts the live file back to that record.
:meth:`ActionLog.records` starts in the newest segment whose first tick
is at or before the first tick asked for, seeks straight to that tick and
verifies only the records it yields: a replay from a checkpoint's cut
reads the ticks after the cut, never the ones before it, and a bad byte
in a record the cut made redundant cannot hide the newer ones.

Appending is two-phase: :meth:`ActionLog.append` starts a record's fsync,
:meth:`ActionLog.wait_durable` waits for it, and the tick runs in between.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import re
import threading
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro.errors import CorruptCheckpointError, StorageError
from repro.storage.double_backup import resolve_fsync_policy
from repro.storage.layout import (
    RECORD_HEADER_BYTES,
    RECORD_TICK,
    fsync_directory,
    pack_record,
    pread_into,
    unpack_record_header,
    verify_record,
    write_all,
)

#: Size of each read the header walk parses headers out of.
_WALK_BLOCK_BYTES = 64 << 10

#: A sealed segment's file name; the number is its first record's tick.
_SEALED_NAME = re.compile(r"actions\.(\d+)\.log")


@dataclass(frozen=True)
class TickRecord:
    """One logical-log entry: everything needed to re-run one tick."""

    tick: int
    #: Serialized numpy Generator state captured before the tick ran.
    rng_state: dict
    #: Application-defined extra payload (external commands, etc.).
    command_payload: bytes = b""


class _Segment:
    """Header offset and (unverified) tick of every record of one segment
    file up to ``end``, in file order."""

    def __init__(self, fd: int) -> None:
        self.fd, self.end = fd, 0
        self.offsets, self.ticks = array("q"), array("q")

    def walk(self) -> int:
        """Index the headers from ``end`` on; returns the file's size.

        Headers are parsed out of bounded block reads, and no payload is
        CRC-checked or unpickled.  A header with bad magic, or whose length
        runs past end of file, is the torn tail and ends the walk, having
        allocated nothing for it.
        """
        size = os.fstat(self.fd).st_size
        block = memoryview(bytearray(min(_WALK_BLOCK_BYTES, size - self.end)))
        add_offset, add_tick = self.offsets.append, self.ticks.append
        offset = base = self.end
        filled = 0
        while offset + RECORD_HEADER_BYTES <= size:
            at = offset - base
            if at + RECORD_HEADER_BYTES > filled:
                base, at = offset, 0
                filled = pread_into(self.fd, block, offset)
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
        self.end = offset
        return size


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
    appends); after a :meth:`roll` it fsyncs the directory before the new
    segment's first record.
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
        #: First tick of every sealed segment, oldest first: listed only
        #: when a read needs an older segment than the live one.
        self._sealed: Optional[List[int]] = None
        self._handle = open(self._path, "a+b")
        self._bytes_verified = 0
        self._live = _Segment(self._handle.fileno())
        size = self._live.walk()
        self._last_tick = self._drop_unverified_tail(self._live)
        if self._last_tick is None:
            # Only a live segment with no verified record opens sealed ones.
            for first in reversed(self._sealed_ticks()):
                with self._segment(first) as segment:
                    self._last_tick = self._drop_unverified_tail(segment)
                if self._last_tick is not None:
                    break
        #: The live file holds bytes past the index (a torn or corrupt
        #: tail, or a failed write) that the next append must cut off first.
        self._torn = size > self._live.end
        # The sync hand-off, both locks held at rest: append releases
        # ``_sync_requested``, the sync thread ``_synced`` after its fsync.
        self._sync_requested, self._synced = threading.Lock(), threading.Lock()
        self._sync_requested.acquire()
        self._synced.acquire()
        self._sync_thread: Optional[threading.Thread] = None
        self._syncing, self._sync_error = False, None
        #: A roll named a segment the directory has not made durable yet.
        self._new_segment = False

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
        """Path of the live segment."""
        return self._path

    @property
    def sealed_segments(self) -> List[str]:
        """Paths of the sealed segments, oldest first."""
        return [self._sealed_path(first) for first in self._sealed_ticks()]

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

    def _sealed_path(self, first_tick: int) -> str:
        return os.path.join(self._directory, f"actions.{first_tick}.log")

    def _sealed_ticks(self) -> List[int]:
        if self._sealed is None:
            self._sealed = sorted(int(match.group(1)) for match in map(
                _SEALED_NAME.fullmatch, os.listdir(self._directory)) if match)
        return self._sealed

    def _drop_unverified_tail(self, segment: _Segment) -> Optional[int]:
        """Cut ``segment``'s index back to its newest record that passes its
        CRC; returns that record's tick, or None when none does."""
        for index in reversed(range(len(segment.offsets))):
            verified = self._read_verified(segment, index)
            if verified is not None:
                break
        else:
            index, verified = -1, None
        if index + 1 < len(segment.offsets):
            segment.end = segment.offsets[index + 1]
            del segment.offsets[index + 1:], segment.ticks[index + 1:]
        return None if verified is None else verified[0]

    @contextlib.contextmanager
    def _segment(self, first_tick: Optional[int]) -> Iterator[_Segment]:
        """The sealed segment ``first_tick``, opened and walked; the live
        one for None."""
        if first_tick is None:
            yield self._live
            return
        with open(self._sealed_path(first_tick), "rb") as handle:
            segment = _Segment(handle.fileno())
            segment.walk()
            yield segment

    def _read_verified(
        self, segment: _Segment, index: int
    ) -> Optional[Tuple[int, memoryview]]:
        """Read record ``index`` of ``segment`` whole; ``(tick, payload)``
        if it is a tick record that passes its CRC, else None."""
        offsets = segment.offsets
        start = offsets[index]
        end = offsets[index + 1] if index + 1 < len(offsets) else segment.end
        frame = memoryview(bytearray(end - start))
        read = pread_into(segment.fd, frame, start)
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
        frame = pack_record(RECORD_TICK, record.tick, 0, payload)
        live = self._live
        try:
            if self._torn:
                # A record appended behind bytes the walk could not read
                # would never be read back: cut the file to its last
                # verified record.
                self._handle.truncate(live.end)
                self._torn = False
            # Unbuffered: a failed write leaves nothing for close to flush.
            write_all(self._handle.fileno(), (frame,))
        except OSError as error:
            self._torn = True
            raise StorageError(
                f"action log write of tick {record.tick} failed: {error}"
            ) from error
        # The live segment's index is one period long: appends extend it.
        live.offsets.append(live.end)
        live.ticks.append(record.tick)
        live.end += len(frame)
        self._last_tick = record.tick
        if self._fsync != "never":
            # Each append is this log's commit point, so the "commit" and
            # "always" policies coincide here.
            if self._sync_thread is None:
                self._sync_thread = threading.Thread(
                    target=self._sync_loop, name="repro-log-sync", daemon=True,
                )
                self._sync_thread.start()
            self._syncing = True
            self._sync_requested.release()

    def roll(self) -> None:
        """Seal the live segment as ``actions.<first tick>.log`` and open a
        fresh ``actions.log`` for the next record; a no-op while the live
        segment holds none.  The server rolls at each checkpoint cut."""
        self.wait_durable()
        if not self._live.ticks:
            return
        first = self._live.ticks[0]
        try:
            os.rename(self._path, self._sealed_path(first))
            handle, self._handle = self._handle, open(self._path, "a+b")
        except OSError as error:
            raise StorageError(f"action log roll failed: {error}") from error
        handle.close()
        if self._sealed is not None:
            self._sealed.append(first)
        self._live, self._torn = _Segment(self._handle.fileno()), False
        self._new_segment = self._fsync != "never"

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

    def _sync_loop(self) -> None:
        while True:
            self._sync_requested.acquire()
            if self._sync_thread is None:
                return
            try:
                if self._new_segment:
                    # The new segment's name is durable before its records.
                    fsync_directory(self._directory)
                    self._new_segment = False
                # The live handle: a roll swaps it only with no sync pending.
                os.fsync(self._handle.fileno())
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

        Starts in the newest segment whose first tick is at or before
        ``start_tick`` and seeks straight to the first record at or after
        it -- no record before it is read -- then reads, CRCs and unpickles
        one record at a time, only the records it yields, opening each
        later segment when it gets there.  Stops at the first record that
        fails its CRC, in whichever segment: nothing from there on is
        trusted.  When that record is older than :attr:`last_tick`, the log
        has a hole, and it is the caller's to refuse a replay that stops
        short of :attr:`last_tick`.
        """
        live = self._live.ticks
        sealed = [] if live and live[0] <= start_tick else self._sealed_ticks()
        sealed = sealed[max(bisect_right(sealed, start_tick) - 1, 0):]
        for first in sealed + [None]:
            with self._segment(first) as segment:
                ticks = segment.ticks
                begin = len(ticks)
                while begin and ticks[begin - 1] >= start_tick:
                    begin -= 1
                for index in range(begin, len(ticks)):
                    verified = self._read_verified(segment, index)
                    if verified is None:
                        return
                    tick, payload = verified
                    rng_state, command_payload = pickle.loads(payload)
                    yield TickRecord(tick=tick, rng_state=rng_state,
                                     command_payload=command_payload)
