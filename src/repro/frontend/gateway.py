"""The fleet-wide front door: placement, bounded queues, and the TCP gateway.

The paper's Figure 1 puts a connection-server tier between clients and the
sharded game servers.  This module is that tier at fleet scale, split into
two layers so the serving logic is testable without sockets:

* :class:`FrontDoor` -- the synchronous core.  It owns the
  :class:`~repro.frontend.sessions.SessionRegistry`, a least-loaded
  :class:`ShardPlacement`, and one bounded :class:`ShardCommandQueue` per
  shard.  ``submit_batch`` admits one session's commands under one lock
  (rate limit + backpressure, both typed rejections; ``submit`` is its
  one-command form); ``drive_tick`` drains every queue, hands each shard
  its batch through the fleet's shared-memory command rings, runs one tick
  on every live shard via
  :meth:`~repro.engine.fleet.ShardFleet.try_run_ticks`, and returns the
  per-session outcome events (APPLIED ranges, typed rejections,
  re-placements).
* :class:`GatewayServer` -- the asyncio TCP skin.  Client sessions speak
  the length-prefixed frames of :mod:`repro.frontend.protocol`; each read
  is parsed whole and its commands admitted as one batch; a driver
  thread calls ``drive_tick`` at a fixed cadence and posts the resulting
  frames back onto the event loop.

Failure semantics: when a shard dies mid-serve, its batch for that tick is
*lost* (the commands were never durably logged), so every lost command gets
a ``REJECT(shard down)``; the dead shard's sessions are immediately
re-placed onto the least-loaded survivors (a fresh ``WELCOME`` tells the
client), and survivors never miss a tick -- one shard's failure is that
shard's clients' problem for exactly one round trip.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.fleet import FleetServeReport, ShardFleet
from repro.errors import BackpressureError, EngineError, ReproError
from repro.frontend import protocol
from repro.obs.metrics import (
    MetricSpec,
    MetricsLayout,
    MetricsRegistry,
    RowMetrics,
)
from repro.obs.telemetry import FleetTelemetry
from repro.obs.trace import get_tracer
from repro.frontend.sessions import (
    CommandOverflowError,
    SessionError,
    SessionRegistry,
)
from repro.state.ring import RECORD_HEADER_BYTES, SharedCommandRing

#: Default seconds between gateway ticks (200 Hz serve loop).
DEFAULT_TICK_INTERVAL = 0.005

#: Bytes one read of a client connection asks for.  Every complete frame
#: in it is parsed, and its commands admitted, as one batch.
READ_BYTES = 1 << 16


class GatewayError(ReproError):
    """The gateway cannot serve (e.g. every shard is down)."""


#: The REJECT code of each error :meth:`FrontDoor.submit_batch` returns.
_REJECT_CODES = {
    CommandOverflowError: protocol.REJECT_RATE_LIMIT,
    BackpressureError: protocol.REJECT_BACKPRESSURE,
    GatewayError: protocol.REJECT_SHARD_DOWN,
}


# ----------------------------------------------------------------------
# Outcome events (what drive_tick tells the transport layer to send)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Applied:
    """Seqs ``first_seq..last_seq`` of one session applied by ``tick``."""

    session_id: int
    first_seq: int
    last_seq: int
    tick: int

    def encode(self) -> bytes:
        return protocol.encode_applied(self.first_seq, self.last_seq,
                                       self.tick)


@dataclass(frozen=True)
class Rejected:
    """One command (or the session, ``seq=0``) was rejected."""

    session_id: int
    code: int
    seq: int
    message: str = ""

    def encode(self) -> bytes:
        return protocol.encode_reject(self.code, self.seq, self.message)


@dataclass(frozen=True)
class Placed:
    """The session is now served by ``shard_index`` (initial or re-placed)."""

    session_id: int
    shard_index: int

    def encode(self) -> bytes:
        return protocol.encode_welcome(self.session_id, self.shard_index)


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------


class ShardPlacement:
    """Least-loaded placement over the live shards of a fleet."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise GatewayError(f"need at least one shard, got {num_shards}")
        self._loads = [0] * num_shards
        self._down = set()

    @property
    def num_shards(self) -> int:
        return len(self._loads)

    @property
    def live_shards(self) -> List[int]:
        """Indexes still accepting placements, in index order."""
        return [i for i in range(len(self._loads)) if i not in self._down]

    def is_live(self, index: int) -> bool:
        return index not in self._down

    def load(self, index: int) -> int:
        """Sessions currently placed on shard ``index``."""
        return self._loads[index]

    def place(self) -> int:
        """Pick the least-loaded live shard and charge one session to it."""
        live = self.live_shards
        if not live:
            raise GatewayError("every shard is down; nothing can serve")
        index = min(live, key=lambda i: (self._loads[i], i))
        self._loads[index] += 1
        return index

    def release(self, index: int) -> None:
        """Return one session's slot on shard ``index``."""
        self._loads[index] = max(0, self._loads[index] - 1)

    def mark_down(self, index: int) -> None:
        """Stop placing onto shard ``index``; its load resets to zero
        (the caller re-places every affected session)."""
        self._down.add(index)
        self._loads[index] = 0

    def mark_up(self, index: int) -> None:
        """Let a recovered shard take placements again."""
        self._down.discard(index)


# ----------------------------------------------------------------------
# Bounded per-shard command queue
# ----------------------------------------------------------------------


class ShardCommandQueue:
    """Bounded FIFO of ``(session_id, seq, payload)`` awaiting one shard.

    Capacity is accounted in ring bytes (header + payload), the same
    currency the shard's shared-memory ring uses, so the gateway rejects at
    the fill level the ring would.  Entries a tick could not hand to the
    ring (it was momentarily fuller than the queue) are re-queued at the
    front and go out first next tick -- per-session FIFO order is never
    broken.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 1:
            raise GatewayError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self._entries: deque = deque()
        self._bytes = 0
        self._capacity = int(capacity_bytes)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def extend(self, entries: List[Tuple[int, int, bytes]],
               pending_bytes: int) -> None:
        """Append admitted entries; ``pending_bytes`` is the queue's fill
        with them, which the admitting caller checked against capacity."""
        self._entries.extend(entries)
        self._bytes = pending_bytes

    def drain(self) -> List[Tuple[int, int, bytes]]:
        batch = list(self._entries)
        self._entries.clear()
        self._bytes = 0
        return batch

    def requeue(self, entries: List[Tuple[int, int, bytes]]) -> None:
        """Put undelivered entries back at the front, oldest first."""
        self._entries.extendleft(reversed(entries))
        for _, _, payload in entries:
            self._bytes += SharedCommandRing.record_bytes(payload)


# ----------------------------------------------------------------------
# The synchronous serving core
# ----------------------------------------------------------------------


#: Serving counters, declared once so the stats object and the telemetry
#: snapshot agree on names.
GATEWAY_METRIC_SPECS = tuple(
    MetricSpec(name, "counter")
    for name in (
        "sessions_opened",
        "sessions_closed",
        "sessions_replaced",
        "commands_admitted",
        # submit_batch calls: commands_admitted / admission_batches is the
        # mean batch a read or an in-process caller hands the front door.
        "admission_batches",
        "commands_applied",
        "rejected_rate_limit",
        "rejected_backpressure",
        "rejected_shard_down",
        "ticks_driven",
        "shards_lost",
    )
)

GATEWAY_METRICS_LAYOUT = MetricsLayout(GATEWAY_METRIC_SPECS)


class GatewayStats:
    """Aggregate serving counters, backed by a metrics registry row.

    Reads (``stats.commands_applied``) and in-place writes
    (``stats.commands_applied += 1``) keep the plain-attribute surface the
    rest of the gateway (and its tests) use, but the storage is int64
    registry slots so :meth:`FrontDoor.telemetry` scrapes the same fields
    the mutators write -- one source of truth, no copy drift.
    """

    _FIELDS = frozenset(spec.name for spec in GATEWAY_METRIC_SPECS)

    def __init__(self, row: Optional[RowMetrics] = None) -> None:
        if row is None:
            row = MetricsRegistry(GATEWAY_METRICS_LAYOUT, rows=1).row(0)
        object.__setattr__(self, "_row", row)

    def __getattr__(self, name: str) -> int:
        if name in self._FIELDS:
            return self._row.value(name)
        raise AttributeError(name)

    def __setattr__(self, name: str, value: int) -> None:
        if name not in self._FIELDS:
            raise AttributeError(f"unknown gateway counter {name!r}")
        self._row.set_value(name, value)

    def add(self, **amounts: int) -> None:
        """Add to several counters at once (cheaper than ``+=`` each)."""
        for name, amount in amounts.items():
            if amount:
                self._row.counter(name).inc(amount)

    def as_dict(self) -> Dict[str, int]:
        """Detached scalar snapshot of every counter."""
        return {name: int(v) for name, v in self._row.snapshot().items()}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"GatewayStats({body})"


@dataclass(frozen=True)
class TickOutcome:
    """One ``drive_tick``'s events plus the fleet's serve report."""

    tick: int
    events: List[object]
    report: FleetServeReport

    @property
    def applied(self) -> List[Applied]:
        return [e for e in self.events if isinstance(e, Applied)]

    @property
    def rejected(self) -> List[Rejected]:
        return [e for e in self.events if isinstance(e, Rejected)]


class FrontDoor:
    """Synchronous fleet front door: sessions, placement, bounded ingestion.

    Thread-safe: transport handlers call :meth:`connect` /
    :meth:`disconnect` / :meth:`submit` from any thread while one driver
    thread calls :meth:`drive_tick`.  The internal lock covers only the
    in-memory bookkeeping -- the fleet tick itself (the expensive part)
    runs unlocked, because only the driver thread ever touches the fleet,
    preserving the rings' single-producer discipline.
    """

    def __init__(
        self,
        fleet: ShardFleet,
        commands_per_tick_limit: int = 64,
        max_pending_commands: Optional[int] = 1024,
        queue_bytes: Optional[int] = None,
    ) -> None:
        self._fleet = fleet
        self._registry = SessionRegistry(
            commands_per_tick_limit=commands_per_tick_limit,
            max_pending_commands=max_pending_commands,
        )
        self._placement = ShardPlacement(fleet.num_shards)
        capacity = (queue_bytes if queue_bytes is not None
                    else fleet.command_capacity_bytes)
        self._queues = [
            ShardCommandQueue(capacity) for _ in range(fleet.num_shards)
        ]
        self._lock = threading.Lock()
        self._tick = 0
        self.stats = GatewayStats()

    @property
    def fleet(self) -> ShardFleet:
        return self._fleet

    @property
    def num_shards(self) -> int:
        return self._placement.num_shards

    @property
    def session_count(self) -> int:
        with self._lock:
            return self._registry.count

    @property
    def live_shards(self) -> List[int]:
        with self._lock:
            return self._placement.live_shards

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def connect(self, player_name: str) -> Placed:
        """Admit a client onto the least-loaded live shard."""
        with self._lock:
            shard_index = self._placement.place()
            session = self._registry.connect(
                player_name, tick=self._tick, shard_index=shard_index
            )
            self.stats.sessions_opened += 1
            return Placed(session_id=session.session_id,
                          shard_index=shard_index)

    def disconnect(self, session_id: int) -> None:
        """Close a session; commands already queued still execute."""
        with self._lock:
            session = self._registry.disconnect(session_id)
            if self._placement.is_live(session.shard_index):
                self._placement.release(session.shard_index)
            self.stats.sessions_closed += 1

    def session(self, session_id: int):
        """Look up one session (tests and tooling)."""
        with self._lock:
            return self._registry.get(session_id)

    # ------------------------------------------------------------------
    # Command admission
    # ------------------------------------------------------------------

    def submit(self, session_id: int, seq: Optional[int],
               payload: bytes) -> None:
        """Queue one command for the session's shard.

        A one-command :meth:`submit_batch` that raises its rejection.
        ``seq`` is the client's per-session stamp; pass ``None`` to have
        the gateway stamp it (for in-process callers that track no seqs).
        """
        rejections = self.submit_batch(session_id, [(seq, payload)])
        if rejections:
            raise rejections[0][1]

    def submit_batch(
        self, session_id: int, commands: Sequence[Tuple[Optional[int], bytes]]
    ) -> List[Tuple[Optional[int], ReproError]]:
        """Queue one session's ``(seq, payload)`` commands, in order.

        Equal to :meth:`submit` once per command, under one lock.  Returns
        the refused commands' ``(seq, error)`` in order, each queueing
        nothing: ``CommandOverflowError`` (budget or pending bound),
        ``BackpressureError`` (queue full) or :class:`GatewayError` (every
        shard down).  An unknown session or a non-bytes payload raises
        ``SessionError`` and queues nothing.
        """
        for _, payload in commands:
            if not isinstance(payload, bytes):
                raise SessionError(
                    f"commands are raw bytes, got {type(payload).__name__}"
                )
        with self._lock:
            session = self._registry.get(session_id)
            self.stats.add(admission_batches=1)
            if not self._placement.is_live(session.shard_index):
                # The shard died and drive_tick has not re-placed us yet
                # (or placement failed); try to re-place right now.
                try:
                    session.shard_index = self._placement.place()
                except GatewayError as error:
                    return [(seq, error) for seq, _ in commands]
                self.stats.sessions_replaced += 1
            index = session.shard_index
            queue = self._queues[index]
            depth = queue.pending_bytes
            admitted: List[Tuple[int, Optional[int], bytes]] = []
            rejections: List[Tuple[Optional[int], ReproError]] = []
            backpressured = rate_limited = 0
            for seq, payload in commands:
                need = RECORD_HEADER_BYTES + len(payload)
                if depth + need > queue.capacity:
                    backpressured += 1
                    rejections.append((seq, BackpressureError(
                        f"shard {index} command queue is full "
                        f"({depth}/{queue.capacity} bytes)",
                        queue=f"gateway-shard-{index:02d}",
                        depth=depth, capacity=queue.capacity,
                    )))
                    continue
                try:
                    self._registry.admit(session)
                except CommandOverflowError as error:
                    rate_limited += 1
                    rejections.append((seq, error))
                    continue
                if seq is None:
                    seq = session.next_seq
                    session.next_seq += 1
                admitted.append((session_id, seq, payload))
                depth += need
            queue.extend(admitted, depth)
            self.stats.add(commands_admitted=len(admitted),
                           rejected_backpressure=backpressured,
                           rejected_rate_limit=rate_limited)
            return rejections

    # ------------------------------------------------------------------
    # The serve loop body
    # ------------------------------------------------------------------

    def drive_tick(self) -> TickOutcome:
        """Deliver every queued batch, tick every live shard, ack results.

        Single-tick pipeline: (1) under the lock, snapshot and clear each
        shard's queue; (2) unlocked, push each batch into its shard's
        command ring and run one fleet tick -- commands a ring
        could not take this tick are re-queued in order; (3) under the
        lock, turn per-shard outcomes into events: contiguous APPLIED seq
        ranges per session for live shards, shard-down rejections and
        session re-placement for newly dead ones.
        """
        tracer = get_tracer()
        with self._lock:
            batches = [
                queue.drain() if self._placement.is_live(index) else []
                for index, queue in enumerate(self._queues)
            ]
        delivered: List[List[Tuple[int, int, bytes]]] = []
        leftover: List[List[Tuple[int, int, bytes]]] = []
        lost: List[List[Tuple[int, int, bytes]]] = []
        with tracer.span("gw_ingest"):
            for index, batch in enumerate(batches):
                sent, back, dead = [], [], []
                if batch:
                    try:
                        accepted = self._fleet.submit_commands(
                            index, [payload for _, _, payload in batch]
                        )
                        sent, back = batch[:accepted], batch[accepted:]
                    except (EngineError, BackpressureError):
                        # Worker already dead (or ring unusable): the whole
                        # batch is lost, never having reached a durable log.
                        dead = batch
                delivered.append(sent)
                leftover.append(back)
                lost.append(dead)

        report = self._fleet.try_run_ticks(1)

        events: List[object] = []
        with tracer.span("gw_ack"), self._lock:
            self._tick += 1
            self.stats.ticks_driven += 1
            for index in range(self.num_shards):
                was_live = self._placement.is_live(index)
                if report.errors[index] is not None or lost[index]:
                    if was_live:
                        events.extend(self._shard_down_locked(
                            index,
                            delivered[index] + leftover[index] + lost[index],
                        ))
                    continue
                if not was_live:
                    continue
                self._queues[index].requeue(leftover[index])
                events.extend(self._ack_locked(delivered[index]))
            self._registry.end_tick()
        return TickOutcome(tick=self._tick, events=events, report=report)

    def _ack_locked(
        self, entries: List[Tuple[int, int, bytes]]
    ) -> List[Applied]:
        """Coalesce one shard's applied entries into per-session seq runs,
        crediting each run to its session in one call."""
        runs: List[List[int]] = []  # [session, first, last]
        for session_id, seq, _ in entries:
            if runs and runs[-1][0] == session_id and seq == runs[-1][2] + 1:
                runs[-1][2] = seq
            else:
                runs.append([session_id, seq, seq])
        self.stats.add(commands_applied=len(entries))
        events: List[Applied] = []
        for session_id, first, last in runs:
            try:
                self._registry.mark_applied(session_id, last - first + 1)
            except SessionError:
                continue  # disconnected while queued; applied, nobody cares
            events.append(Applied(session_id, first, last, self._tick))
        return events

    def _shard_down_locked(
        self, index: int, lost_entries: List[Tuple[int, int, bytes]]
    ) -> List[object]:
        """Mark a shard dead: reject its lost commands, re-place its
        sessions onto the survivors."""
        events: List[object] = []
        self._placement.mark_down(index)
        self.stats.shards_lost += 1
        # Commands still queued for the dead shard are equally lost.
        lost_entries = lost_entries + self._queues[index].drain()
        for session_id, seq, _ in lost_entries:
            self.stats.rejected_shard_down += 1
            events.append(Rejected(
                session_id=session_id,
                code=protocol.REJECT_SHARD_DOWN,
                seq=seq,
                message=f"shard {index} crashed before applying this",
            ))
        for session in list(self._registry.sessions()):
            if session.shard_index != index:
                continue
            session.commands_pending = 0
            try:
                session.shard_index = self._placement.place()
            except GatewayError:
                continue  # no shard left; submits will keep failing typed
            self.stats.sessions_replaced += 1
            events.append(Placed(session_id=session.session_id,
                                 shard_index=session.shard_index))
        return events

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def telemetry(self) -> FleetTelemetry:
        """Merged fleet snapshot with this gateway's serving section.

        Thread-safe against concurrent ``drive_tick`` calls: counters live
        in single-writer int64 slots, so reads here are always whole values
        (the *set* may straddle a tick, like any scrape).
        """
        with self._lock:
            gateway = dict(self.stats.as_dict())
            gateway["sessions"] = self._registry.count
            gateway["live_shards"] = len(self._placement.live_shards)
            gateway["queue_pending_bytes"] = sum(
                q.pending_bytes for q in self._queues
            )
            gateway["queue_capacity_bytes"] = sum(
                q.capacity for q in self._queues
            )
        return self._fleet.telemetry(gateway=gateway)


# ----------------------------------------------------------------------
# The asyncio TCP skin
# ----------------------------------------------------------------------


class GatewayServer:
    """Asyncio TCP gateway over a :class:`FrontDoor`.

    One task per client connection parses frames and calls into the front
    door; a dedicated **driver thread** runs ``drive_tick`` every
    ``tick_interval`` seconds and posts the outcome frames back onto the
    event loop with ``call_soon_threadsafe`` -- the event loop never blocks
    on a fleet tick, and the fleet never sees two concurrent drivers.
    """

    def __init__(
        self,
        frontdoor: FrontDoor,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval: float = DEFAULT_TICK_INTERVAL,
    ) -> None:
        self._frontdoor = frontdoor
        self._host = host
        self._port = port
        self._tick_interval = tick_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._driver: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def frontdoor(self) -> FrontDoor:
        return self._frontdoor

    @property
    def address(self) -> Tuple[str, int]:
        """Bound (host, port) once started."""
        if self._server is None:
            raise GatewayError("gateway is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "GatewayServer":
        """Bind the listener and start the tick driver thread."""
        if self._server is not None:
            raise GatewayError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port
        )
        self._stop.clear()
        self._driver = threading.Thread(
            target=self._drive_loop, name="repro-gateway-driver", daemon=True
        )
        self._driver.start()
        return self

    async def stop(self) -> None:
        """Stop the driver, close the listener and every client."""
        self._stop.set()
        if self._driver is not None:
            self._driver.join(timeout=30.0)
            self._driver = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()

    async def __aenter__(self) -> "GatewayServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Tick driving
    # ------------------------------------------------------------------

    def _drive_loop(self) -> None:
        while not self._stop.is_set():
            started = time.perf_counter()
            outcome = self._frontdoor.drive_tick()
            if outcome.events and self._loop is not None:
                self._loop.call_soon_threadsafe(self._dispatch,
                                                outcome.events)
            elapsed = time.perf_counter() - started
            remaining = self._tick_interval - elapsed
            if remaining > 0:
                self._stop.wait(remaining)

    def _dispatch(self, events: List[object]) -> None:
        """Runs on the event loop: fan outcome frames out to sessions."""
        for event in events:
            writer = self._writers.get(event.session_id)
            if writer is None or writer.is_closing():
                continue
            writer.write(event.encode())

    def _stats_reply(self) -> bytes:
        """Build one STATS_REPLY frame (or a typed rejection on failure)."""
        try:
            payload = self._frontdoor.telemetry().to_json()
        except ReproError as error:
            return protocol.encode_reject(
                protocol.REJECT_BAD_REQUEST, 0, str(error)
            )
        return protocol.encode_stats_reply(payload)

    def _admit(self, session_id: Optional[int],
               commands: List[Tuple[int, bytes]],
               writer: asyncio.StreamWriter) -> None:
        """Submit commands parsed from one read as a batch; write a typed
        REJECT for each one refused."""
        if not commands:
            return
        for seq, error in self._frontdoor.submit_batch(session_id, commands):
            writer.write(protocol.encode_reject(
                _REJECT_CODES[type(error)], seq, str(error)
            ))

    # ------------------------------------------------------------------
    # Per-connection protocol
    # ------------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        session_id: Optional[int] = None
        buffer = b""
        try:
            while True:
                chunk = await reader.read(READ_BYTES)
                if not chunk:
                    return  # EOF, maybe mid-frame: the session closes
                buffer += chunk
                commands: List[Tuple[int, bytes]] = []
                used = 0
                try:
                    for message, used in protocol.decode_frames(buffer):
                        if message[0] == "command" and session_id is not None:
                            commands.append(message[1:])
                            continue
                        # Replies go out in frame order: admit first what
                        # came before this frame.
                        self._admit(session_id, commands, writer)
                        commands = []
                        # STATS is allowed before HELLO so scrapers
                        # (repro.obs.dump) never have to open a playing
                        # session just to look.
                        if message[0] == "stats":
                            writer.write(self._stats_reply())
                        elif session_id is not None:
                            writer.write(protocol.encode_reject(
                                protocol.REJECT_BAD_REQUEST, 0,
                                f"unexpected {message[0]} frame",
                            ))
                        elif message[0] == "hello":
                            placed = self._frontdoor.connect(message[1])
                            session_id = placed.session_id
                            self._writers[session_id] = writer
                            writer.write(placed.encode())
                        else:
                            # The reply still goes out: close() flushes.
                            reason = f"expected HELLO, got {message[0]}"
                            writer.write(protocol.encode_reject(
                                protocol.REJECT_BAD_REQUEST, 0, reason
                            ))
                            raise protocol.ProtocolError(reason)
                finally:
                    self._admit(session_id, commands, writer)
                await writer.drain()
                buffer = buffer[used:]
        except (protocol.ProtocolError, ConnectionResetError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown while this client was mid-read
        finally:
            if session_id is not None:
                self._writers.pop(session_id, None)
                try:
                    self._frontdoor.disconnect(session_id)
                except SessionError:
                    pass
            try:
                writer.close()
            except Exception:
                pass
