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

Records are CRC-framed; a torn tail (crash mid-append) truncates cleanly to
the last complete record -- a tick is recoverable exactly when its record hit
the log.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.errors import StorageError
from repro.storage.double_backup import resolve_fsync_policy
from repro.storage.layout import (
    RECORD_HEADER_BYTES,
    RECORD_TICK,
    pack_record,
    unpack_record_header,
    verify_record,
)


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
    the OS page cache.
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
        self._last_tick = self._find_last_tick()

    def close(self) -> None:
        """Close the log file."""
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
        """Highest tick recorded, or None if the log is empty."""
        return self._last_tick

    def _find_last_tick(self) -> Optional[int]:
        last = None
        for record in self.records():
            last = record.tick
        return last

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, record: TickRecord) -> None:
        """Durably append one tick record (ticks must be consecutive)."""
        if self._last_tick is not None and record.tick != self._last_tick + 1:
            raise StorageError(
                f"non-consecutive tick {record.tick} after {self._last_tick}"
            )
        if self._last_tick is None and record.tick < 0:
            raise StorageError(f"tick must be >= 0, got {record.tick}")
        payload = pickle.dumps(
            (record.rng_state, record.command_payload), protocol=4
        )
        self._handle.seek(0, os.SEEK_END)
        self._handle.write(pack_record(RECORD_TICK, record.tick, 0, payload))
        self._handle.flush()
        if self._fsync != "never":
            # Each append is this log's commit point, so the "commit" and
            # "always" policies coincide here.
            os.fsync(self._handle.fileno())
        self._last_tick = record.tick

    # ------------------------------------------------------------------
    # Reading / replay
    # ------------------------------------------------------------------

    def records(self, start_tick: int = 0) -> Iterator[TickRecord]:
        """Yield complete records with ``tick >= start_tick``.

        Stops silently at the first torn or corrupt record -- everything
        beyond it was not durably logged.
        """
        handle = self._handle
        handle.seek(0)
        size = os.fstat(handle.fileno()).st_size
        offset = 0
        while True:
            header = handle.read(RECORD_HEADER_BYTES)
            if len(header) < RECORD_HEADER_BYTES:
                return
            try:
                record_type, tick, _b, length, checksum = unpack_record_header(header)
            except Exception:
                return
            # The length is unverified until the CRC: one that runs past end
            # of file is a torn tail, and nothing is allocated for it.
            offset += RECORD_HEADER_BYTES + length
            if offset > size:
                return
            payload = handle.read(length)
            if len(payload) < length or not verify_record(header, payload, checksum):
                return
            if record_type != RECORD_TICK:
                continue
            if tick < start_tick:
                continue
            rng_state, command_payload = pickle.loads(payload)
            yield TickRecord(
                tick=tick, rng_state=rng_state, command_payload=command_payload
            )

    def truncate(self) -> None:
        """Erase the log (used after a checkpoint makes old ticks redundant in
        tests; production engines would archive instead)."""
        self._handle.seek(0)
        self._handle.truncate(0)
        self._handle.flush()
        self._last_tick = None
