"""The persistence server of the paper's Figure 1 architecture.

"Current MMOs focus on providing transactional guarantees for a small subset
of updates ... For example, many MMOs allow players to trade or sell in-game
items ... These transactions frequently involve user interaction or
communication with an external system, and thus the update rate is fairly
low.  Recovery can therefore be handled by a standard DBMS with an
ARIES-style recovery manager." (Sections 2 and 2.2.)

This package is that back-end, miniaturized: a transactional item/account
store with a redo-only write-ahead log, periodic snapshots, and log-replay
recovery.  It complements the checkpoint-recovery fast path: the game server
(:mod:`repro.engine`) persists the high-rate local updates, while trades and
other ACID operations flow through :class:`PersistenceServer`.  Each store
belongs to one shard; there are no cross-shard transactions.  The paper's
evaluation checkpoints game state only, so this back-end is context.

Simplifications relative to a full ARIES (documented, deliberate): the store
is single-writer (MMO persistence servers serialize trades per shard), pages
are never stolen (in-memory state mutates only at commit), so the log needs
no undo records and recovery is pure redo from the newest snapshot.
"""

from repro.persistence.server import PersistenceServer, TradeResult
from repro.persistence.store import Character, Item, ItemStore
from repro.persistence.wal import WriteAheadLog

__all__ = [
    "Character",
    "Item",
    "ItemStore",
    "PersistenceServer",
    "TradeResult",
    "WriteAheadLog",
]
