"""Client sessions and admission control for the front door.

:class:`~repro.frontend.gateway.FrontDoor` admits clients into *sessions*
and meters their command flow:

* a **per-tick command budget** models flood control (a client may not
  issue more than ``commands_per_tick_limit`` commands between two tick
  boundaries);
* a **pending bound** caps how many admitted-but-not-yet-applied commands
  one session may accumulate, so a stalled tick loop cannot let a single
  client buffer unbounded work.

Both violations raise :class:`CommandOverflowError`, a typed
:class:`SessionError` carrying the offending session and the limit hit --
the gateway maps it onto a client-visible REJECT frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ReproError


class SessionError(ReproError):
    """A client session was missing, closed, or over its command budget."""


class CommandOverflowError(SessionError):
    """A session hit its per-tick budget or its pending-command bound."""

    def __init__(self, message: str, *, session_id: int = 0,
                 limit: int = 0) -> None:
        super().__init__(message)
        self.session_id = session_id
        self.limit = limit


@dataclass
class ClientSession:
    """One connected client."""

    session_id: int
    player_name: str
    connected_at_tick: int
    #: Fleet shard currently serving this session.
    shard_index: int = 0
    #: Commands forwarded during the current tick window (rate limiting).
    commands_this_tick: int = 0
    #: Commands admitted but not yet applied by a tick (pending bound).
    commands_pending: int = 0
    #: Next seq for server-stamped commands (seq 0 is reserved for
    #: session-level rejections, so stamping starts at 1).
    next_seq: int = 1


class SessionRegistry:
    """Session lifecycle + admission control.

    Not thread-safe by itself -- the front door serializes access under
    its own lock.
    """

    def __init__(self, commands_per_tick_limit: int = 16,
                 max_pending_commands: Optional[int] = 256) -> None:
        if commands_per_tick_limit < 1:
            raise SessionError(
                f"commands_per_tick_limit must be >= 1, got "
                f"{commands_per_tick_limit}"
            )
        if max_pending_commands is not None and max_pending_commands < 1:
            raise SessionError(
                f"max_pending_commands must be >= 1 or None, got "
                f"{max_pending_commands}"
            )
        self._limit = commands_per_tick_limit
        self._max_pending = max_pending_commands
        self._sessions: Dict[int, ClientSession] = {}
        self._next_session_id = 1

    @property
    def count(self) -> int:
        """Number of currently connected sessions."""
        return len(self._sessions)

    def sessions(self):
        """Live sessions (a view; do not mutate while iterating)."""
        return self._sessions.values()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def connect(self, player_name: str, tick: int,
                shard_index: int = 0) -> ClientSession:
        """Open a session at the given tick, served by ``shard_index``."""
        if not player_name:
            raise SessionError("player_name must be non-empty")
        session_id = self._next_session_id
        self._next_session_id += 1
        session = ClientSession(
            session_id=session_id,
            player_name=player_name,
            connected_at_tick=tick,
            shard_index=shard_index,
        )
        self._sessions[session_id] = session
        return session

    def disconnect(self, session_id: int) -> ClientSession:
        """Close a session; its queued commands still execute."""
        return self._sessions.pop(self.get(session_id).session_id)

    def get(self, session_id: int) -> ClientSession:
        """Look up a session or raise :class:`SessionError`."""
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"no such session {session_id}")
        return session

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def admit(self, session: ClientSession) -> None:
        """Charge one command against the budgets of ``session`` (from
        :meth:`get`, so a batch looks its session up once).

        Raises :class:`CommandOverflowError` when the per-tick budget or
        the pending bound is exhausted; on success the session's counters
        are already updated (the caller must actually forward the command).
        """
        session_id = session.session_id
        if session.commands_this_tick >= self._limit:
            raise CommandOverflowError(
                f"session {session_id} exceeded {self._limit} commands/tick",
                session_id=session_id, limit=self._limit,
            )
        if (self._max_pending is not None
                and session.commands_pending >= self._max_pending):
            raise CommandOverflowError(
                f"session {session_id} has {session.commands_pending} "
                f"unapplied commands queued (bound {self._max_pending})",
                session_id=session_id, limit=self._max_pending,
            )
        session.commands_this_tick += 1
        session.commands_pending += 1

    def end_tick(self) -> None:
        """Reset every session's per-tick budget at a tick boundary.

        Pending counts are *not* reset here -- they drop when the caller
        acknowledges application via :meth:`mark_applied`.
        """
        for session in self._sessions.values():
            session.commands_this_tick = 0

    def mark_applied(self, session_id: int, count: int) -> None:
        """Credit ``count`` of this session's pending commands as applied."""
        session = self.get(session_id)
        session.commands_pending = max(0, session.commands_pending - count)
