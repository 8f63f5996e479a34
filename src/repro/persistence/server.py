"""The transactional persistence server.

Public operations are whole transactions: each validates against the live
store, is durably logged (write-ahead), and only then applied.  Failed
validations leave no trace -- there is nothing to undo because nothing was
written.  :meth:`PersistenceServer.recover` rebuilds the exact committed
state after a crash from the newest snapshot plus redo of the log tail.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.errors import EngineError
from repro.persistence.store import ItemStore, TransactionError
from repro.persistence.wal import WriteAheadLog

#: Operation opcodes recorded in the WAL.
OP_CREATE_CHARACTER = "create_character"
OP_CREATE_ITEM = "create_item"
OP_TRANSFER_GOLD = "transfer_gold"
OP_ADJUST_GOLD = "adjust_gold"
OP_TRANSFER_ITEM = "transfer_item"
OP_DELETE_ITEM = "delete_item"


@dataclass(frozen=True)
class TradeResult:
    """Outcome of a trade transaction."""

    transaction_id: int
    item_id: int
    seller_id: int
    buyer_id: int
    price: int


class PersistenceServer:
    """A miniature ACID back-end for trades and other durable operations."""

    def __init__(self, directory: Union[str, os.PathLike],
                 sync: bool = False,
                 snapshot_every: int = 64) -> None:
        if snapshot_every < 1:
            raise EngineError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self._directory = os.fspath(directory)
        self._wal = WriteAheadLog(self._directory, sync=sync)
        self._snapshot_every = snapshot_every
        self._store = ItemStore()
        self._redo_pending()
        self._transactions_since_snapshot = 0
        self._crashed = False

    def _redo_pending(self) -> None:
        recovery = self._wal.recover()
        if recovery.snapshot is not None:
            self._store = ItemStore.from_snapshot_bytes(recovery.snapshot)
        for operations in recovery.redo_operations:
            self._apply_operations(operations)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def store(self) -> ItemStore:
        """The live committed state (read-only by convention)."""
        return self._store

    @property
    def directory(self) -> str:
        """Directory holding the WAL."""
        return self._directory

    @property
    def last_transaction_id(self) -> int:
        """Id of the most recently committed transaction."""
        return self._wal.last_transaction_id

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def _commit(self, operations: List[tuple]) -> int:
        """Validate, write-ahead, apply.  Returns the transaction id."""
        if self._crashed:
            raise EngineError("persistence server has crashed; recover it")
        # Validate against a scratch copy so failures leave no state behind.
        scratch = ItemStore.from_snapshot_bytes(self._store.snapshot_bytes())
        self._apply_operations(operations, target=scratch)
        # Durable first (write-ahead), then apply to the live store.
        transaction_id = self._wal.last_transaction_id + 1
        self._wal.log_transaction(transaction_id, operations)
        self._apply_operations(operations)
        self._transactions_since_snapshot += 1
        if self._transactions_since_snapshot >= self._snapshot_every:
            self._wal.log_snapshot(self._store.snapshot_bytes())
            self._transactions_since_snapshot = 0
        return transaction_id

    def _apply_operations(self, operations: List[tuple],
                          target: Optional[ItemStore] = None) -> None:
        store = target if target is not None else self._store
        for operation in operations:
            opcode, *args = operation
            if opcode == OP_CREATE_CHARACTER:
                store.apply_create_character(*args)
            elif opcode == OP_CREATE_ITEM:
                store.apply_create_item(*args)
            elif opcode == OP_TRANSFER_GOLD:
                store.apply_transfer_gold(*args)
            elif opcode == OP_ADJUST_GOLD:
                store.apply_adjust_gold(*args)
            elif opcode == OP_TRANSFER_ITEM:
                store.apply_transfer_item(*args)
            elif opcode == OP_DELETE_ITEM:
                store.apply_delete_item(*args)
            else:
                raise TransactionError(f"unknown operation {opcode!r}")

    # -- The public transactional API ----------------------------------

    def create_character(self, name: str, gold: int = 0) -> int:
        """Register a character; returns its id."""
        character_id = self._store.next_character_id
        self._commit([(OP_CREATE_CHARACTER, character_id, name, gold)])
        return character_id

    def grant_item(self, owner_id: int, kind: str) -> int:
        """Mint a new item for a character (quest reward, drop...)."""
        item_id = self._store.next_item_id
        self._commit([(OP_CREATE_ITEM, item_id, kind, owner_id)])
        return item_id

    def deposit_gold(self, character_id: int, amount: int) -> int:
        """Credit gold from outside the economy (quest reward, loot)."""
        if amount <= 0:
            raise TransactionError(
                f"deposit amount must be positive, got {amount}"
            )
        return self._commit([(OP_ADJUST_GOLD, character_id, amount)])

    def trade_item(self, item_id: int, seller_id: int, buyer_id: int,
                   price: int) -> TradeResult:
        """The paper's canonical ACID example: item against gold, atomically.

        Either the buyer pays and receives the item, or nothing happens --
        validated first, committed as one WAL record.
        """
        operations = [
            (OP_TRANSFER_GOLD, buyer_id, seller_id, price),
            (OP_TRANSFER_ITEM, item_id, seller_id, buyer_id),
        ]
        transaction_id = self._commit(operations)
        return TradeResult(
            transaction_id=transaction_id,
            item_id=item_id,
            seller_id=seller_id,
            buyer_id=buyer_id,
            price=price,
        )

    def destroy_item(self, item_id: int) -> int:
        """Consume/destroy an item."""
        return self._commit([(OP_DELETE_ITEM, item_id)])

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def checkpoint_now(self) -> None:
        """Embed a snapshot immediately (resets the redo horizon)."""
        if self._crashed:
            raise EngineError("persistence server has crashed; recover it")
        self._wal.log_snapshot(self._store.snapshot_bytes())
        self._transactions_since_snapshot = 0

    def compact_wal(self) -> int:
        """Snapshot, then drop the redundant WAL prefix; returns bytes freed."""
        self.checkpoint_now()
        return self._wal.compact()

    # ------------------------------------------------------------------
    # Failure and recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: abandon the in-memory store."""
        self._crashed = True
        self._wal.close()

    def close(self) -> None:
        """Orderly shutdown."""
        if not self._crashed:
            self._wal.close()

    def __enter__(self) -> "PersistenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def recover(cls, directory: Union[str, os.PathLike],
                sync: bool = False) -> "PersistenceServer":
        """Reopen after a crash: snapshot + redo rebuilds committed state."""
        return cls(directory, sync=sync)

