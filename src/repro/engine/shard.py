"""One MMO shard: the complete Figure 1 persistence architecture.

A shard pairs the two durability paths the paper distinguishes:

* the **game server** (checkpoint recovery) -- hundreds of thousands of
  non-transactional local updates per second, persisted by one of the six
  checkpointing algorithms plus the logical log;
* the **persistence server** (ARIES-style redo WAL) -- the low-rate ACID
  operations such as item trades.

"Clients communicate with game servers to update the state of the world, and
these servers use a standard DBMS back-end to provide transactional
guarantees" (Section 1).  :class:`MMOShard` wires both together, crashes as a
unit, and recovers as a unit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

from repro.engine.app import TickApplication
from repro.engine.recovery import RecoveryManager, RecoveryReport
from repro.engine.server import DurableGameServer
from repro.errors import EngineError
from repro.persistence.server import PersistenceServer, TradeResult

GAME_SUBDIRECTORY = "game"
PERSISTENCE_SUBDIRECTORY = "persistence"


@dataclass(frozen=True)
class ShardRecovery:
    """Everything recovered from a crashed shard."""

    game: RecoveryReport
    persistence: PersistenceServer


class MMOShard:
    """A single shard: durable game world + transactional item economy."""

    def __init__(
        self,
        app: TickApplication,
        directory: Union[str, os.PathLike],
        algorithm: str = "copy-on-update",
        seed: int = 0,
        sync: bool = False,
        writer_pool=None,
        **game_server_kwargs,
    ) -> None:
        """``writer_pool`` (a
        :class:`~repro.engine.writer_pool.CheckpointWriterPool`) makes the
        game server submit its checkpoints through the pool instead of
        flushing each on the game thread at its cut; the pool is owned by
        the caller (typically :class:`~repro.engine.fleet.ShardFleet`) and
        survives this shard's crash/close."""
        self._directory = os.fspath(directory)
        self._game = DurableGameServer(
            app,
            os.path.join(self._directory, GAME_SUBDIRECTORY),
            algorithm=algorithm,
            seed=seed,
            sync=sync,
            writer_pool=writer_pool,
            **game_server_kwargs,
        )
        self._persistence = PersistenceServer(
            os.path.join(self._directory, PERSISTENCE_SUBDIRECTORY), sync=sync
        )
        self._crashed = False

    # ------------------------------------------------------------------
    # The two update paths
    # ------------------------------------------------------------------

    @property
    def game(self) -> DurableGameServer:
        """The high-rate, checkpoint-recovered world state."""
        self._check_alive()
        return self._game

    @property
    def persistence(self) -> PersistenceServer:
        """The low-rate ACID back-end (trades, account operations)."""
        self._check_alive()
        return self._persistence

    @property
    def directory(self) -> str:
        """Root directory of the shard's durable state."""
        return self._directory

    @property
    def crashed(self) -> bool:
        """True once :meth:`crash` has fail-stopped this shard."""
        return self._crashed

    def run_tick(self) -> int:
        """Advance the world one tick through the game server."""
        self._check_alive()
        return self._game.run_tick()

    def run_ticks(self, count: int) -> None:
        """Advance the world several ticks."""
        for _ in range(count):
            self.run_tick()

    def wait_checkpoint_idle(self, timeout=60.0) -> None:
        """Block until the game server has no checkpoint write in flight."""
        self._check_alive()
        self._game.wait_checkpoint_idle(timeout=timeout)

    def trade_item(self, item_id: int, seller_id: int, buyer_id: int,
                   price: int) -> TradeResult:
        """Route an ACID trade through the persistence server."""
        self._check_alive()
        return self._persistence.trade_item(item_id, seller_id, buyer_id,
                                            price)

    def _check_alive(self) -> None:
        if self._crashed:
            raise EngineError("shard has crashed; recover it instead")

    # ------------------------------------------------------------------
    # Failure and recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop the whole shard (both servers at once)."""
        self._check_alive()
        self._game.crash()
        self._persistence.crash()
        self._crashed = True

    def close(self) -> None:
        """Orderly shutdown."""
        if not self._crashed:
            self._game.close()
            self._persistence.close()

    def __enter__(self) -> "MMOShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def recover(
        cls,
        app: TickApplication,
        directory: Union[str, os.PathLike],
        seed: int = 0,
    ) -> ShardRecovery:
        """Recover both halves of a crashed shard.

        The game world comes back via checkpoint restore + logical-log
        replay; the item economy via WAL snapshot + redo.  Each path
        recovers exactly its own committed state -- the game loses nothing
        (every tick is logged), the economy loses nothing that was
        acknowledged.
        """
        directory = os.fspath(directory)
        game_report = RecoveryManager(
            app, os.path.join(directory, GAME_SUBDIRECTORY), seed=seed
        ).recover()
        persistence = PersistenceServer.recover(
            os.path.join(directory, PERSISTENCE_SUBDIRECTORY)
        )
        return ShardRecovery(game=game_report, persistence=persistence)
