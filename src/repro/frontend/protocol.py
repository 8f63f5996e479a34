"""Wire protocol of the gateway front door.

Clients speak length-prefixed binary frames over TCP: a little-endian
``u32`` frame length followed by a one-byte frame type and a fixed
``struct``-packed body.  The shapes mirror the shard-side command framing
(:mod:`repro.state.ring` uses the same u32-length-prefix idiom), so a
command's bytes flow client -> gateway -> shared ring -> logical log
without re-encoding.

Frame types
-----------

* ``HELLO`` (client) -- open a session; body is the utf-8 player name.
* ``WELCOME`` (server) -- session granted (or re-placed after its shard
  died): session id + the shard now serving it.
* ``COMMAND`` (client) -- one game command; the client stamps a per-session
  monotonically increasing ``seq`` so acks can be batched as ranges.
* ``APPLIED`` (server) -- a *contiguous* range of this session's command
  seqs was applied (and durably logged) by the given tick.  One frame acks
  a whole tick's worth of commands.
* ``REJECT`` (server) -- a typed rejection: backpressure (bounded queue
  full), rate limit (per-tick budget), shard down (commands lost to a
  crash; re-send after the new ``WELCOME``), or bad request.
* ``STATS`` (client) -- ask for the fleet telemetry snapshot; no body.
  Allowed before HELLO, so monitoring tools need no session.
* ``STATS_REPLY`` (server) -- the snapshot as a utf-8 JSON body (the
  :meth:`~repro.obs.telemetry.FleetTelemetry.as_dict` shape).

There is no goodbye frame -- closing the TCP connection closes the
session, exactly like a real game client dropping.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

from repro.errors import ReproError


class ProtocolError(ReproError):
    """A malformed or out-of-order gateway frame."""


#: Frame length prefix (little-endian u32, excluding itself).
FRAME_HEADER_BYTES = 4

#: Upper bound on one frame's body; a peer claiming more is malformed.
MAX_FRAME_BYTES = 1 << 16

# Frame types (u8).
T_HELLO = 1
T_WELCOME = 2
T_COMMAND = 3
T_APPLIED = 4
T_REJECT = 5
T_STATS = 6
T_STATS_REPLY = 7

# REJECT codes (u8).
REJECT_BACKPRESSURE = 1   # bounded command queue or ring is full
REJECT_RATE_LIMIT = 2     # session exceeded its per-tick command budget
REJECT_SHARD_DOWN = 3     # the serving shard crashed; command was lost
REJECT_BAD_REQUEST = 4    # malformed or out-of-order frame

_LENGTH = struct.Struct("<I")        # the frame length prefix
_WELCOME = struct.Struct("<BIH")     # type, session_id, shard_index
_COMMAND = struct.Struct("<BI")      # type, seq (payload follows)
_APPLIED = struct.Struct("<BIIQ")    # type, first_seq, last_seq, tick
_REJECT = struct.Struct("<BBI")      # type, code, seq (message follows)


def frame(body: bytes) -> bytes:
    """Wrap a frame body in its length prefix."""
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    return len(body).to_bytes(FRAME_HEADER_BYTES, "little") + body


def encode_hello(player_name: str) -> bytes:
    """Client -> server: open a session."""
    if not player_name:
        raise ProtocolError("player_name must be non-empty")
    return frame(bytes([T_HELLO]) + player_name.encode("utf-8"))


def encode_welcome(session_id: int, shard_index: int) -> bytes:
    """Server -> client: session granted / re-placed onto ``shard_index``."""
    return frame(_WELCOME.pack(T_WELCOME, session_id, shard_index))


def encode_command(seq: int, payload: bytes) -> bytes:
    """Client -> server: one game command stamped with a session seq."""
    return frame(_COMMAND.pack(T_COMMAND, seq) + payload)


def encode_applied(first_seq: int, last_seq: int, tick: int) -> bytes:
    """Server -> client: seqs ``first..last`` applied by ``tick``."""
    return frame(_APPLIED.pack(T_APPLIED, first_seq, last_seq, tick))


def encode_reject(code: int, seq: int, message: str = "") -> bytes:
    """Server -> client: typed rejection of command ``seq`` (0 = session)."""
    return frame(_REJECT.pack(T_REJECT, code, seq)
                 + message.encode("utf-8"))


def encode_stats() -> bytes:
    """Client -> server: request the fleet telemetry snapshot."""
    return frame(bytes([T_STATS]))


def encode_stats_reply(payload: str) -> bytes:
    """Server -> client: the telemetry snapshot as utf-8 JSON."""
    return frame(bytes([T_STATS_REPLY]) + payload.encode("utf-8"))


def decode(body: bytes) -> Tuple:
    """Decode one frame body into a ``(kind, ...)`` tuple.

    Returns ``("hello", name)``, ``("welcome", session_id, shard_index)``,
    ``("command", seq, payload)``, ``("applied", first, last, tick)``,
    ``("reject", code, seq, message)``, ``("stats",)`` or
    ``("stats_reply", json_text)``.
    """
    if not body:
        raise ProtocolError("empty frame")
    kind = body[0]
    if kind == T_HELLO:
        try:
            name = body[1:].decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"bad HELLO name: {error}") from None
        return ("hello", name)
    if kind == T_WELCOME:
        if len(body) != _WELCOME.size:
            raise ProtocolError(f"bad WELCOME length {len(body)}")
        _, session_id, shard_index = _WELCOME.unpack(body)
        return ("welcome", session_id, shard_index)
    if kind == T_COMMAND:
        if len(body) < _COMMAND.size:
            raise ProtocolError(f"bad COMMAND length {len(body)}")
        _, seq = _COMMAND.unpack_from(body)
        return ("command", seq, body[_COMMAND.size:])
    if kind == T_APPLIED:
        if len(body) != _APPLIED.size:
            raise ProtocolError(f"bad APPLIED length {len(body)}")
        _, first, last, tick = _APPLIED.unpack(body)
        return ("applied", first, last, tick)
    if kind == T_REJECT:
        if len(body) < _REJECT.size:
            raise ProtocolError(f"bad REJECT length {len(body)}")
        _, code, seq = _REJECT.unpack_from(body)
        try:
            message = body[_REJECT.size:].decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"bad REJECT message: {error}") from None
        return ("reject", code, seq, message)
    if kind == T_STATS:
        if len(body) != 1:
            raise ProtocolError(f"bad STATS length {len(body)}")
        return ("stats",)
    if kind == T_STATS_REPLY:
        try:
            payload = body[1:].decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"bad STATS_REPLY body: {error}") from None
        return ("stats_reply", payload)
    raise ProtocolError(f"unknown frame type {kind}")


def decode_frames(buffer: bytes) -> Iterator[Tuple[Tuple, int]]:
    """Decode every complete frame at the front of ``buffer``.

    Yields ``(message, end)`` per frame, ``end`` being the offset just past
    it (what follows the last ``end`` is a frame still in flight).  A body
    :func:`decode` refuses yields ``("bad", reason)``.  A length prefix
    over :data:`MAX_FRAME_BYTES` raises :class:`ProtocolError` before
    anything is allocated for it.
    """
    offset = 0
    while len(buffer) - offset >= FRAME_HEADER_BYTES:
        (length,) = _LENGTH.unpack_from(buffer, offset)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
            )
        end = offset + FRAME_HEADER_BYTES + length
        if end > len(buffer):
            return
        try:
            message = decode(buffer[offset + FRAME_HEADER_BYTES:end])
        except ProtocolError as error:
            message = ("bad", str(error))
        yield message, end
        offset = end


async def read_frame(reader) -> Optional[Tuple]:
    """Read and decode one frame from an ``asyncio.StreamReader``.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on a truncated or malformed frame.
    """
    import asyncio

    try:
        header = await reader.readexactly(FRAME_HEADER_BYTES)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection died mid frame header") from None
    length = int.from_bytes(header, "little")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection died mid frame body") from None
    return decode(body)
