"""Gateway clients: a single asyncio client and a closed-loop load generator.

:class:`GatewayClient` speaks the :mod:`repro.frontend.protocol` frames and
measures **command-to-apply latency** from the client's chair: the clock
starts when a COMMAND frame is written and stops when the APPLIED range
covering its seq arrives -- the full path through the gateway's bounded
queue, the shared-memory ring, the shard's tick, and the ack fan-out.

:class:`LoadGenerator` drives many concurrent clients against one gateway
and reports sustained commands/second plus latency percentiles; its default
concurrency is sized from :func:`repro.cpu.available_cpu_count` so a pinned
CI runner is not asked to juggle hundreds of sockets.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cpu import available_cpu_count
from repro.errors import ReproError
from repro.frontend import protocol

#: Clients per available core the load generator defaults to.
CLIENTS_PER_CPU = 8


class ClientError(ReproError):
    """The gateway closed on us or broke protocol."""


class GatewayClient:
    """One connected player: sends commands, collects acks and latencies."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self.session_id: Optional[int] = None
        self.shard_index: Optional[int] = None
        self._next_seq = 1
        self._sent_at: Dict[int, float] = {}
        #: Seconds from COMMAND write to covering APPLIED frame.
        self.latencies: List[float] = []
        #: ``(code, seq)`` of every REJECT received.
        self.rejects: List[Tuple[int, int]] = []
        #: Shard re-placements observed (WELCOME frames after the first).
        self.replacements: int = 0
        self._settled = asyncio.Event()
        self._settled.set()
        self._reader_task: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    async def connect(cls, host: str, port: int,
                      player_name: str) -> "GatewayClient":
        """Dial the gateway and complete the HELLO/WELCOME handshake."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        writer.write(protocol.encode_hello(player_name))
        await writer.drain()
        message = await protocol.read_frame(reader)
        if message is None or message[0] != "welcome":
            writer.close()
            raise ClientError(f"expected WELCOME, got {message!r}")
        client.session_id = message[1]
        client.shard_index = message[2]
        client._reader_task = asyncio.ensure_future(client._read_loop())
        return client

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    async def send_command(self, payload: bytes) -> int:
        """Write one COMMAND; returns the seq it was stamped with."""
        seq = self._next_seq
        self._next_seq += 1
        self._sent_at[seq] = time.perf_counter()
        self._settled.clear()
        self._writer.write(protocol.encode_command(seq, payload))
        await self._writer.drain()
        return seq

    async def settle(self, timeout: float = 30.0) -> None:
        """Wait until every sent command has been applied or rejected."""
        await asyncio.wait_for(self._settled.wait(), timeout=timeout)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await protocol.read_frame(self._reader)
                if message is None:
                    break
                kind = message[0]
                now = time.perf_counter()
                if kind == "applied":
                    _, first, last, _tick = message
                    for seq in range(first, last + 1):
                        sent = self._sent_at.pop(seq, None)
                        if sent is not None:
                            self.latencies.append(now - sent)
                elif kind == "reject":
                    _, code, seq, _text = message
                    self.rejects.append((code, seq))
                    self._sent_at.pop(seq, None)
                elif kind == "welcome":
                    self.shard_index = message[2]
                    self.replacements += 1
                if not self._sent_at:
                    self._settled.set()
        except (protocol.ProtocolError, ConnectionResetError):
            pass
        finally:
            self._settled.set()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generator run."""

    num_clients: int
    duration_seconds: float
    commands_sent: int
    commands_applied: int
    commands_rejected: int
    replacements: int
    #: Client-observed command-to-apply latencies, seconds, sorted.
    latencies: List[float] = field(repr=False, default_factory=list)

    @property
    def commands_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.commands_applied / self.duration_seconds

    def latency_percentile(self, fraction: float) -> float:
        """Latency at ``fraction`` (0..1); 0.0 when nothing was measured."""
        if not self.latencies:
            return 0.0
        rank = min(len(self.latencies) - 1,
                   int(fraction * len(self.latencies)))
        return self.latencies[rank]

    @property
    def p50(self) -> float:
        return self.latency_percentile(0.50)

    @property
    def p99(self) -> float:
        return self.latency_percentile(0.99)


class LoadGenerator:
    """Closed-loop load: each client sends, awaits its ack, sends again.

    Closed-loop driving means offered load adapts to what the serve path
    sustains (no coordinated-omission trap: a slow tick delays the *next*
    send, and the wait is part of the measured latency).
    """

    def __init__(
        self,
        host: str,
        port: int,
        num_clients: Optional[int] = None,
        payload: bytes = b"heal:0",
        commands_per_burst: int = 4,
    ) -> None:
        if num_clients is None:
            num_clients = CLIENTS_PER_CPU * available_cpu_count()
        if num_clients < 1:
            raise ClientError(f"need at least one client, got {num_clients}")
        self._host = host
        self._port = port
        self._num_clients = num_clients
        self._payload = payload
        self._burst = max(1, commands_per_burst)

    async def _drive_client(self, index: int, deadline: float,
                            counters: dict) -> GatewayClient:
        client = await GatewayClient.connect(
            self._host, self._port, f"load-{index}"
        )
        try:
            while time.perf_counter() < deadline:
                for _ in range(self._burst):
                    await client.send_command(self._payload)
                    counters["sent"] += 1
                try:
                    await client.settle(timeout=30.0)
                except asyncio.TimeoutError:
                    break
        finally:
            await client.close()
        return client

    async def run_async(self, duration_seconds: float) -> LoadReport:
        deadline = time.perf_counter() + duration_seconds
        counters = {"sent": 0}
        started = time.perf_counter()
        clients = await asyncio.gather(*[
            self._drive_client(index, deadline, counters)
            for index in range(self._num_clients)
        ])
        wall = time.perf_counter() - started
        latencies = sorted(
            latency for client in clients for latency in client.latencies
        )
        return LoadReport(
            num_clients=self._num_clients,
            duration_seconds=wall,
            commands_sent=counters["sent"],
            commands_applied=len(latencies),
            commands_rejected=sum(len(c.rejects) for c in clients),
            replacements=sum(c.replacements for c in clients),
            latencies=latencies,
        )

    def run(self, duration_seconds: float) -> LoadReport:
        """Synchronous wrapper: drive the load on a private event loop."""
        return asyncio.run(self.run_async(duration_seconds))
