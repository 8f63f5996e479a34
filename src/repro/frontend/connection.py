"""Connection server: sessions, command routing, and rate limiting.

Clients never talk to the game server directly; a connection server
authenticates them into *sessions* and forwards their commands into the
shard's durable command path (where they are logged and replayed on
recovery).  Session bookkeeping and admission control live in the shared
:class:`~repro.frontend.sessions.SessionRegistry` -- the same machinery the
fleet-wide :class:`~repro.frontend.gateway.GatewayServer` uses -- so there
is exactly one command-admission path however a client arrives.  On top of
the per-tick budget, ``max_pending_commands`` bounds how many commands one
session may queue ahead of the next tick; both violations raise the typed
:class:`~repro.frontend.sessions.CommandOverflowError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.shard import MMOShard
from repro.frontend.sessions import (
    ClientSession,
    CommandOverflowError,
    SessionError,
    SessionRegistry,
)
from repro.persistence.server import TradeResult

__all__ = [
    "ClientSession",
    "CommandOverflowError",
    "ConnectionServer",
    "ConnectionStats",
    "SessionError",
]


@dataclass
class ConnectionStats:
    """Aggregate counters across all sessions."""

    sessions_opened: int = 0
    sessions_closed: int = 0
    commands_routed: int = 0
    commands_rejected: int = 0
    trades_routed: int = 0


class ConnectionServer:
    """Routes clients into one shard (the middle tier of Figure 1)."""

    def __init__(self, shard: MMOShard,
                 commands_per_tick_limit: int = 16,
                 max_pending_commands: Optional[int] = 256) -> None:
        self._shard = shard
        self._registry = SessionRegistry(
            commands_per_tick_limit=commands_per_tick_limit,
            max_pending_commands=max_pending_commands,
        )
        self.stats = ConnectionStats()

    @property
    def shard(self) -> MMOShard:
        """The shard this connection server fronts."""
        return self._shard

    @property
    def session_count(self) -> int:
        """Number of currently connected clients."""
        return self._registry.count

    @property
    def registry(self) -> SessionRegistry:
        """The underlying session registry (shared admission machinery)."""
        return self._registry

    @property
    def geometry(self):
        """World geometry, for load drivers that target units."""
        return self._shard.game.table.geometry

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def connect(self, player_name: str) -> int:
        """Open a session; returns its id."""
        session = self._registry.connect(
            player_name, tick=self._shard.game.ticks_run
        )
        self.stats.sessions_opened += 1
        return session.session_id

    def disconnect(self, session_id: int) -> None:
        """Close a session; its queued commands still execute."""
        self._registry.disconnect(session_id)
        self.stats.sessions_closed += 1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def send_command(self, session_id: int, command: bytes) -> None:
        """Forward one client command into the shard's durable command path.

        Raises :class:`CommandOverflowError` (a :class:`SessionError`) when
        the session's per-tick budget or pending-command bound is exhausted
        -- the command is dropped, as a flooding client's would be.
        """
        try:
            self._registry.admit(self._registry.get(session_id))
        except CommandOverflowError:
            self.stats.commands_rejected += 1
            raise
        self._shard.game.submit_command(command)
        self.stats.commands_routed += 1

    def request_trade(self, session_id: int, item_id: int, seller_id: int,
                      buyer_id: int, price: int) -> TradeResult:
        """Route an ACID trade to the persistence server."""
        session = self._registry.get(session_id)
        result = self._shard.trade_item(item_id, seller_id, buyer_id, price)
        session.trades_requested += 1
        self.stats.trades_routed += 1
        return result

    # ------------------------------------------------------------------
    # Tick integration
    # ------------------------------------------------------------------

    def run_tick(self) -> int:
        """Advance the shard one tick and reset per-tick command budgets.

        Every pending command is applied by this tick (the game server
        drains its whole backlog at the tick boundary), so pending counts
        drop to zero alongside the per-tick budgets.
        """
        updates = self._shard.run_tick()
        self._registry.end_tick()
        self._registry.mark_all_applied()
        return updates

    def session(self, session_id: int) -> ClientSession:
        """Look up one session (for tests and tooling)."""
        return self._registry.get(session_id)
