"""The TCP side of ``gateway_rate``: a forked server and an open-loop client.

The gateway and its fleet run in one forked *server child*, so the CPU
charged to a command (``cmd_cpu_us``) is the server's alone: the child and
its shard workers, read from ``/proc``.  The load comes from this process:
one asyncio loop, ``SESSIONS`` connections, every command sent on a fixed
schedule whatever has been acked, and timed from the moment it was *due* to
the APPLIED frame that covers it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from typing import List, Optional

import numpy as np

from repro.frontend import protocol
from repro.frontend.gateway import GatewayServer

import host
import workloads
from workloads import (
    GATEWAY_TICK_SECONDS,
    SESSIONS,
    CommandLedger,
    CommandStream,
    ServeResult,
    TickMeter,
)

#: The sender wakes this often; commands due since the last wake go out in
#: one write.  ``loadgen.late_p99_ms`` reports how late that made them.
SEND_PERIOD = 0.0005
#: Seconds the client waits for the last acks after its last send.
ACK_GRACE = 10.0


def _server_main(conn, spec, shard_apps, directory: str, seed: int) -> None:
    """Child process: fleet + front door + gateway, driven over ``conn``.

    Parent -> child: ``finish`` stops the gateway, quiesces the fleet and
    replies with the meter's series; then ``crash`` fail-stops the fleet
    (SIGKILLing its workers) or ``close`` shuts it down, and the child ends.
    """
    status = 1
    fleet = None
    try:
        fleet = workloads.build_fleet(spec, shard_apps, directory, seed)
        door = workloads.build_frontdoor(fleet)
        meter = TickMeter(fleet)

        async def serve() -> None:
            server = await GatewayServer(door).start()
            conn.send(("ready", server.address))
            loop = asyncio.get_running_loop()
            command = await loop.run_in_executor(None, conn.recv)
            await server.stop()
            if command != "finish":
                raise RuntimeError(f"unexpected command {command!r}")

        asyncio.run(serve())
        # Stop TAIL_TICKS past a cut, like the in-process loop, so every
        # recovery replays the same number of logged ticks.
        while ((len(meter.tick_seconds) - 1) % spec.cadence
               != workloads.TAIL_TICKS):
            door.drive_tick()
        fleet.quiesce()
        meter.poll()
        conn.send(("served", {
            "tick_started": meter.tick_started,
            "tick_seconds": meter.tick_seconds,
            "commits": meter.commits,
            "failed_ticks": meter.failed_ticks,
            "max_age": meter.max_age,
        }))
        if conn.recv() == "crash":
            fleet.crash()
        else:
            fleet.close()
        status = 0
    except BaseException as error:  # report it; the parent decides
        try:
            conn.send(("error", repr(error)))
            if fleet is not None:
                fleet.crash()  # leave no worker and no /dev/shm segment
        except Exception:
            pass
    finally:
        os._exit(status)


class TcpServer:
    """The forked gateway server, with the same surface as InprocServer."""

    def __init__(self, spec, shard_apps, directory: str, seed: int) -> None:
        self.spec = spec
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_server_main,
            args=(child_conn, spec, shard_apps, directory, seed),
            name="e2e-gateway-server",
        )
        self._process.start()
        child_conn.close()
        self._address = self._expect("ready")
        self._series: Optional[dict] = None

    def _expect(self, kind: str, timeout: float = 120.0):
        try:
            if not self._conn.poll(timeout):
                raise RuntimeError(f"no {kind!r} within {timeout} s")
            message = self._conn.recv()
            if message[0] != kind:
                raise RuntimeError(f"{message!r}")
        except (EOFError, RuntimeError) as error:
            self._kill()
            raise RuntimeError(f"gateway server failed: {error}") from None
        return message[1]

    def _kill(self) -> None:
        """Error path: SIGKILL the child and its workers, sweep their shm."""
        for pid in host.process_tree(self._process.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._process.join(timeout=10.0)
        try:
            from repro.state.shared import reap_stale_segments
        except ImportError:
            return  # the leak check then names what is left
        reap_stale_segments()

    def _finish(self) -> dict:
        if self._series is None:
            self._conn.send("finish")
            self._series = self._expect("served")
        return self._series

    def _end(self, how: str) -> None:
        self._finish()
        self._conn.send(how)
        self._process.join(timeout=60.0)
        if self._process.is_alive() or self._process.exitcode != 0:
            code = self._process.exitcode
            self._kill()
            raise RuntimeError(f"gateway server did not end cleanly ({code})")

    def serve(self, stream: CommandStream, deadline_seconds: float,
              exclude_pids) -> ServeResult:
        """Run the whole stream against the live gateway, open loop."""
        del deadline_seconds  # the schedule, not the server, sets the length
        client = OpenLoopClient(self._address, stream,
                                self.spec.commands_per_second)
        pids = host.process_tree(self._process.pid)

        async def load():
            await client.connect()
            # Let the idle gateway tick through its warm-up periods first.
            await asyncio.sleep(self.spec.warmup_ticks * GATEWAY_TICK_SECONDS)
            cpu_before = host.cpu_seconds(pids)
            try:
                window = await client.run()
            finally:
                await client.close()
            return window, host.cpu_seconds(pids) - cpu_before

        (begin, end), cpu = asyncio.run(load())
        series = self._finish()
        timed = [i for i, at in enumerate(series["tick_started"])
                 if begin <= at <= end]
        return ServeResult(
            window=(begin, end),
            tick_started=[series["tick_started"][i] for i in timed],
            tick_seconds=[series["tick_seconds"][i] for i in timed],
            commits=[c for c in series["commits"] if begin <= c[0] <= end],
            ledger=client.ledger,
            ticks_wanted=len(timed),
            ticks_driven=len(series["tick_seconds"]),
            failed_ticks=series["failed_ticks"],
            max_age=series["max_age"],
            cpu_seconds=cpu,
        )

    def quiesce(self) -> None:
        """The child quiesces as part of ``finish``; no live digest here."""
        self._finish()

    def crash(self) -> None:
        self._end("crash")

    def discard(self) -> None:
        self._end("close")


def due_offsets(count: int, rate: float) -> np.ndarray:
    """Seconds after stream start at which each of ``count`` commands is
    due: command ``k`` at ``k / rate``, whatever has been acked by then."""
    return np.arange(count) / rate


def due_count(count: int, rate: float, elapsed: float) -> int:
    """How many commands are due ``elapsed`` seconds into the stream."""
    if elapsed < 0:
        return 0
    return min(count, int(elapsed * rate) + 1)


def lane_due_count(stream_due: int, lane: int) -> int:
    """Of the stream's first ``stream_due`` commands, how many are lane
    ``lane``'s (positions ``lane, lane + SESSIONS, ...``)."""
    return max(0, (stream_due - lane + SESSIONS - 1) // SESSIONS)


class OpenLoopClient:
    """``SESSIONS`` connections sending one shared schedule, lane by lane."""

    def __init__(self, address, stream: CommandStream, rate: float) -> None:
        self._address = address
        self._stream = stream
        self._rate = rate
        self._connections: List[tuple] = []
        self.ledger = CommandLedger(len(stream))

    async def connect(self) -> None:
        address, port = self._address
        for lane in range(SESSIONS):
            reader, writer = await asyncio.open_connection(address, port)
            self._connections.append((reader, writer))
            writer.write(protocol.encode_hello(f"bench-{lane}"))
            await writer.drain()
            welcome = await protocol.read_frame(reader)
            if welcome is None or welcome[0] != "welcome":
                raise RuntimeError(f"expected WELCOME, got {welcome!r}")

    async def close(self) -> None:
        for _, writer in self._connections:
            writer.close()
        for _, writer in self._connections:
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def run(self) -> tuple:
        """Send the whole stream on schedule, wait for the acks; returns
        the ``(begin, end)`` of the load."""
        begin = time.perf_counter()
        self.ledger.due_at = begin + due_offsets(len(self._stream),
                                                 self._rate)
        readers = [
            asyncio.ensure_future(self._read_acks(lane, reader))
            for lane, (reader, _) in enumerate(self._connections)
        ]
        try:
            await asyncio.gather(*[
                self._send_lane(lane, writer, begin)
                for lane, (_, writer) in enumerate(self._connections)
            ])
            deadline = time.perf_counter() + ACK_GRACE
            while self.ledger.unacked() and time.perf_counter() < deadline:
                await asyncio.sleep(0.005)
            end = time.perf_counter()
        finally:
            for task in readers:
                task.cancel()
            await asyncio.gather(*readers, return_exceptions=True)
        return begin, end

    async def _send_lane(self, lane: int, writer, begin: float) -> None:
        frames = self._stream.frames[lane::SESSIONS]
        sent = 0
        while sent < len(frames):
            now = time.perf_counter()
            due = lane_due_count(
                due_count(len(self._stream), self._rate, now - begin), lane)
            if due > sent:
                writer.write(b"".join(frames[sent:due]))
                self.ledger.sent(lane, sent, due, now)
                sent = due
                await writer.drain()
            await asyncio.sleep(SEND_PERIOD)

    async def _read_acks(self, lane: int, reader) -> None:
        while True:
            message = await protocol.read_frame(reader)
            if message is None:
                return
            if message[0] == "applied":
                self.ledger.applied(lane, message[1], message[2], message[3],
                                    time.perf_counter())
            elif message[0] == "reject":
                self.ledger.rejects += 1
