"""Redo-only write-ahead log for the persistence server.

Log discipline: a transaction's operations are buffered in memory; at commit
time one record holding the *whole* operation list is appended and flushed
(write-ahead), and only then are the operations applied to the in-memory
store.  A crash before the append loses the transaction (it was never
acknowledged); a crash after it leaves a complete record that redo replays.
Because a transaction is one record, torn writes cannot split it -- the CRC
framing from :mod:`repro.storage.layout` drops a damaged tail record whole.

The log also carries snapshot markers: recovery loads the newest snapshot and
redoes only the transactions logged after it.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro.errors import StorageError
from repro.storage.layout import (
    RECORD_HEADER_BYTES,
    pack_record,
    unpack_record_header,
    verify_record,
)

#: WAL record types (disjoint from the checkpoint/action-log types).
RECORD_TRANSACTION = 16
RECORD_SNAPSHOT = 17


@dataclass(frozen=True)
class WalRecovery:
    """Everything redo needs, reconstructed from one scan of the log.

    ``redo_operations`` lists the operation batches of the transactions
    logged after the snapshot, to re-apply *in log order* on top of it.
    """

    snapshot: Optional[bytes]
    redo_operations: List[List[tuple]]


class WriteAheadLog:
    """Append-only redo log with embedded snapshots."""

    FILE_NAME = "persistence.wal"

    def __init__(self, directory: Union[str, os.PathLike],
                 sync: bool = False) -> None:
        self._directory = os.fspath(directory)
        self._sync = sync
        os.makedirs(self._directory, exist_ok=True)
        self._path = os.path.join(self._directory, self.FILE_NAME)
        self._handle = open(self._path, "a+b")
        self._last_transaction_id = 0
        try:
            for _kind, payload in self._scan():
                # Snapshot records carry the id watermark at snapshot time,
                # so the counter survives compaction.
                self._last_transaction_id = max(
                    self._last_transaction_id, payload[0]
                )
        except StorageError:
            self._handle.close()
            raise

    def close(self) -> None:
        """Close the log file."""
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def path(self) -> str:
        """Path of the log file."""
        return self._path

    @property
    def last_transaction_id(self) -> int:
        """Highest transaction id durably logged (0 if none)."""
        return self._last_transaction_id

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _append(self, record_type: int, a: int, payload: bytes) -> None:
        self._handle.seek(0, os.SEEK_END)
        self._handle.write(pack_record(record_type, a, 0, payload))
        self._handle.flush()
        if self._sync:
            os.fsync(self._handle.fileno())

    def log_transaction(self, transaction_id: int,
                        operations: List[tuple]) -> None:
        """Durably append one committed transaction (write-ahead point)."""
        if transaction_id <= self._last_transaction_id:
            raise StorageError(
                f"transaction ids must increase: {transaction_id} after "
                f"{self._last_transaction_id}"
            )
        self._append(
            RECORD_TRANSACTION, transaction_id,
            pickle.dumps(operations, protocol=4),
        )
        self._last_transaction_id = transaction_id

    def log_snapshot(self, snapshot: bytes) -> None:
        """Embed a store snapshot; redo restarts from the newest one."""
        self._append(RECORD_SNAPSHOT, self._last_transaction_id, snapshot)

    # ------------------------------------------------------------------
    # Reading / redo
    # ------------------------------------------------------------------

    def _scan(self) -> Iterator[Tuple[int, tuple]]:
        """Yield ``(record_type, payload_tuple)`` for complete records.

        Payloads: ``(transaction_id, operations)`` for transactions,
        ``(last_transaction_id, snapshot_bytes)`` for snapshots.  Stops at
        the first torn record; a whole record of any other type raises
        :class:`StorageError`, since skipping it could drop committed
        state.
        """
        handle = self._handle
        handle.seek(0)
        while True:
            offset = handle.tell()
            header = handle.read(RECORD_HEADER_BYTES)
            if len(header) < RECORD_HEADER_BYTES:
                return
            try:
                record_type, a, _b, length, checksum = unpack_record_header(
                    header
                )
            except Exception:
                return
            payload = handle.read(length)
            if len(payload) < length or not verify_record(header, payload,
                                                          checksum):
                return
            if record_type == RECORD_TRANSACTION:
                yield record_type, (a, pickle.loads(payload))
            elif record_type == RECORD_SNAPSHOT:
                yield record_type, (a, payload)
            else:
                raise StorageError(
                    f"{self._path}: unknown WAL record type {record_type} "
                    f"at offset {offset}"
                )

    def recover(self) -> WalRecovery:
        """Rebuild redo state from one forward scan of the log.

        Snapshots reset the redo list: their state already includes every
        batch applied before them.
        """
        snapshot: Optional[bytes] = None
        redo: List[List[tuple]] = []
        for record_type, payload in self._scan():
            if record_type == RECORD_SNAPSHOT:
                snapshot = payload[1]
                redo = []
            else:
                redo.append(payload[1])
        return WalRecovery(snapshot=snapshot, redo_operations=redo)

    def size_bytes(self) -> int:
        """Current log size."""
        self._handle.seek(0, os.SEEK_END)
        return self._handle.tell()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> int:
        """Drop everything the newest snapshot makes redundant.

        Rewrites the log as the newest snapshot, then every record after
        it.  Returns the bytes reclaimed (0 when there is no snapshot to
        compact behind).
        """
        recovery = self.recover()
        if recovery.snapshot is None:
            return 0
        old_size = self.size_bytes()
        # Collect the raw records after the newest snapshot by re-scanning
        # with offsets: simplest correct approach is to re-serialize from
        # the recovered structures.
        temp_path = self._path + ".compact"
        with open(temp_path, "wb") as temp:
            temp.write(
                pack_record(
                    RECORD_SNAPSHOT, self._last_transaction_id, 0,
                    recovery.snapshot,
                )
            )
            for index, operations in enumerate(recovery.redo_operations):
                # Post-snapshot batches are re-logged as plain transactions;
                # their original ids are already reflected in
                # last_transaction_id, so synthetic ids only order them.
                temp.write(
                    pack_record(
                        RECORD_TRANSACTION,
                        self._last_transaction_id - len(
                            recovery.redo_operations
                        ) + index + 1,
                        0,
                        pickle.dumps(operations, protocol=4),
                    )
                )
            temp.flush()
            if self._sync:
                os.fsync(temp.fileno())
        self._handle.close()
        os.replace(temp_path, self._path)
        self._handle = open(self._path, "a+b")
        return old_size - self.size_bytes()
