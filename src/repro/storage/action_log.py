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
Each segment is a :class:`~repro.storage.layout.RecordFile`, the framed
record file the checkpoint log is built on, and is read the same way:
*verify what you trust*.  Opening walks the live segment's headers only
and lists sealed ones by name only when a read needs them, so it costs
one period, not the uptime.  :attr:`ActionLog.last_tick` is the newest
record that passes its CRC, in the newest segment that has one, so a tick
is recoverable exactly when its record hit the log; the records after it
are the torn tail, which the next append cuts off, as it does what a
failed write left.  :meth:`ActionLog.records` starts in the newest segment
whose first tick is at or before the first tick asked for, seeks straight
to that tick and verifies only the records it yields: a replay from a
checkpoint's cut reads the ticks after the cut, never the ones before it,
and a bad byte in a record the cut made redundant cannot hide the newer
ones.

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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from repro.errors import StorageError
from repro.storage.layout import (
    RECORD_HEADER_BYTES,
    RECORD_TICK,
    RecordFile,
    check_fsync_policy,
    fsync_directory,
)

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


class ActionLog:
    """Append-only logical log of game ticks.

    Durability follows the same ``fsync_policy`` vocabulary as the
    checkpoint stores (``never`` / ``commit`` / ``always``), so sweeps
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
        fsync_policy: str = "never",
    ) -> None:
        self._directory = os.fspath(directory)
        self._fsync = check_fsync_policy(fsync_policy)
        os.makedirs(self._directory, exist_ok=True)
        self._path = os.path.join(self._directory, self.FILE_NAME)
        #: First tick of every sealed segment, oldest first: listed only
        #: when a read needs an older segment than the live one.
        self._sealed: Optional[List[int]] = None
        self._bytes_verified = 0
        self._live = RecordFile(self._path)
        self._live.walk()
        self._last_tick = self._drop_unverified_tail(self._live)
        if self._last_tick is None:
            # Only a live segment with no verified record opens sealed ones.
            for first in reversed(self._sealed_ticks()):
                with self._segment(first) as segment:
                    self._last_tick = self._drop_unverified_tail(segment)
                if self._last_tick is not None:
                    break
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
        self._live.close()

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

    def _drop_unverified_tail(self, segment: RecordFile) -> Optional[int]:
        """Cut ``segment``'s index back to its newest record that passes its
        CRC; returns that record's tick, or None when none does."""
        index = len(segment.records)
        while index and self._read_tick(segment, index - 1) is None:
            index -= 1
        segment.cut(index)
        return segment.records[-1].a if index else None

    @contextlib.contextmanager
    def _segment(self, first_tick: Optional[int]) -> Iterator[RecordFile]:
        """The sealed segment ``first_tick``, opened and walked; the live
        one for None."""
        if first_tick is None:
            yield self._live
            return
        segment = RecordFile(self._sealed_path(first_tick), readonly=True)
        try:
            segment.walk()
            yield segment
        finally:
            segment.close()

    def _read_tick(self, segment: RecordFile, index: int):
        """Record ``index`` of ``segment`` read whole: its payload if it is
        a tick record that passes its CRC, else None."""
        record = segment.records[index]
        self._bytes_verified += RECORD_HEADER_BYTES + record.length
        payload = segment.read_verified(index)
        return payload if record.type == RECORD_TICK else None

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
            # The live segment's index is one period long: appends extend
            # it, after cutting off a torn tail the open or a failed write
            # left, so the record is always read back.
            self._live.append([(RECORD_TICK, record.tick, 0, [payload])])
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
        if not self._live.records:
            return
        first = self._live.records[0].a
        try:
            os.rename(self._path, self._sealed_path(first))
            sealed, self._live = self._live, RecordFile(self._path)
        except OSError as error:
            raise StorageError(f"action log roll failed: {error}") from error
        sealed.close()
        if self._sealed is not None:
            self._sealed.append(first)
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
                # The live file: a roll swaps it only with no sync pending.
                os.fsync(self._live.fd)
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
        live = self._live.records
        sealed = [] if live and live[0].a <= start_tick else self._sealed_ticks()
        sealed = sealed[max(bisect_right(sealed, start_tick) - 1, 0):]
        for first in sealed + [None]:
            with self._segment(first) as segment:
                records = segment.records
                begin = len(records)
                while begin and records[begin - 1].a >= start_tick:
                    begin -= 1
                for index in range(begin, len(records)):
                    payload = self._read_tick(segment, index)
                    if payload is None:
                        return
                    rng_state, command_payload = pickle.loads(payload)
                    yield TickRecord(tick=records[index].a,
                                     rng_state=rng_state,
                                     command_payload=command_payload)
