"""Wire-protocol tests against a live :class:`GatewayServer`.

The gateway parses every complete frame of one read and admits the
commands among them as a batch.  These tests pin what a client can see of
that: replies do not depend on how the byte stream was cut into writes,
an oversized length prefix closes the connection with nothing allocated
for it, a bad frame is rejected in place without losing its neighbours,
and a connection that ends mid-frame frees its session.

Every gateway here holds its tick driver at a gate until the test opens
it, so every frame sent before that is admitted in one tick window and the
replies are a function of the byte stream alone.
"""

import asyncio
import json
import random
import threading
import tracemalloc

import pytest

import repro.state.ring as ring_module
from repro.config import StateGeometry
from repro.engine.fleet import ShardFleet
from repro.frontend import FrontDoor, GatewayServer
from repro.frontend import protocol

GEOMETRY = StateGeometry(rows=64, columns=8)
LIMIT = 8
QUEUE_BYTES = 100
TIMEOUT = 10.0


@pytest.fixture
def app_factory(random_walk_app):
    app_class = type(random_walk_app)
    return lambda index: app_class(GEOMETRY, updates_per_tick=16)


class GatedGateway:
    """A one-shard gateway whose driver waits for :attr:`release`."""

    def __init__(self, app_factory, directory) -> None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ring_module, "COMMAND_RING_BYTES", QUEUE_BYTES)
            fleet = ShardFleet(app_factory, directory, 1, seed=3)
        self.door = FrontDoor(fleet, commands_per_tick_limit=LIMIT)
        self.release = threading.Event()
        drive_tick = self.door.drive_tick

        def gated_drive_tick():
            self.release.wait(timeout=30.0)
            return drive_tick()

        self.door.drive_tick = gated_drive_tick
        self.server = GatewayServer(self.door, tick_interval=0.002)

    async def __aenter__(self) -> "GatedGateway":
        await self.server.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.release.set()
        await self.server.stop()
        self.door.fleet.close()

    async def open(self):
        host, port = self.server.address
        return await asyncio.open_connection(host, port)

    async def wait_for(self, condition) -> None:
        deadline = asyncio.get_running_loop().time() + TIMEOUT
        while not condition():
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.005)


async def read_frames(reader, count):
    return [
        await asyncio.wait_for(protocol.read_frame(reader), TIMEOUT)
        for _ in range(count)
    ]


def command_stream() -> bytes:
    """HELLO, then twelve commands with an unknown frame after the fourth:
    seq 3 is too big for the queue, seqs 10-12 are over the tick budget."""
    frames = [protocol.encode_hello("chunky")]
    for seq in range(1, 13):
        payload = b"x" * 90 if seq == 3 else b"c%02d" % seq
        frames.append(protocol.encode_command(seq, payload))
        if seq == 4:
            frames.append(protocol.frame(bytes([99])))
    return b"".join(frames)


def chunkings(stream: bytes):
    yield "whole", [stream]
    yield "bytewise", [stream[i:i + 1] for i in range(len(stream))]
    for seed in range(3):
        rng = random.Random(seed)
        chunks, offset = [], 0
        while offset < len(stream):
            size = rng.randint(1, 40)
            chunks.append(stream[offset:offset + size])
            offset += size
        yield f"random-{seed}", chunks


def test_replies_do_not_depend_on_chunking(app_factory, tmp_path):
    async def replies(directory, chunks):
        async with GatedGateway(app_factory, directory) as gateway:
            reader, writer = await gateway.open()
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                await asyncio.sleep(0)
            before_tick = await read_frames(reader, 6)
            gateway.release.set()
            after_tick = await read_frames(reader, 2)
            writer.close()
            return before_tick + after_tick

    stream = command_stream()
    seen = {
        name: asyncio.run(replies(tmp_path / name, chunks))
        for name, chunks in chunkings(stream)
    }
    whole = seen.pop("whole")
    summary = [frame[:3] if frame[0] == "reject" else frame[:2]
               for frame in whole]
    assert summary == [
        ("welcome", 1),
        ("reject", protocol.REJECT_BACKPRESSURE, 3),
        ("reject", protocol.REJECT_BAD_REQUEST, 0),
        ("reject", protocol.REJECT_RATE_LIMIT, 10),
        ("reject", protocol.REJECT_RATE_LIMIT, 11),
        ("reject", protocol.REJECT_RATE_LIMIT, 12),
        ("applied", 1),
        ("applied", 4),
    ]
    assert whole[-2:] == [("applied", 1, 2, 1), ("applied", 4, 9, 1)]
    for name, frames in seen.items():
        assert frames == whole, name


def test_oversized_length_prefix_closes_without_allocating(app_factory,
                                                            tmp_path):
    async def scenario():
        async with GatedGateway(app_factory, tmp_path) as gateway:
            reader, writer = await gateway.open()
            writer.write(protocol.encode_hello("greedy"))
            assert (await read_frames(reader, 1))[0][0] == "welcome"
            tracemalloc.start()
            try:
                writer.write(b"\xff\xff\xff\xff" + b"x" * 64)
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), TIMEOUT) == b""
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            await gateway.wait_for(lambda: gateway.door.session_count == 0)
            writer.close()

    asyncio.run(scenario())


def test_bad_frame_between_commands_keeps_both(app_factory, tmp_path):
    async def scenario():
        async with GatedGateway(app_factory, tmp_path) as gateway:
            reader, writer = await gateway.open()
            writer.write(b"".join([
                protocol.encode_hello("neighbours"),
                protocol.encode_command(1, b"first"),
                protocol.frame(bytes([99])),
                protocol.encode_command(2, b"second"),
                protocol.encode_stats(),
            ]))
            welcome, bad, stats = await read_frames(reader, 3)
            assert welcome[0] == "welcome"
            assert bad[:3] == ("reject", protocol.REJECT_BAD_REQUEST, 0)
            assert stats[0] == "stats_reply"
            # The STATS reply already counts both commands: the frames
            # before it were admitted before it was answered.
            counters = json.loads(stats[1])["gateway"]
            assert counters["commands_admitted"] == 2
            assert counters["admission_batches"] >= 2
            gateway.release.set()
            assert await read_frames(reader, 1) == [("applied", 1, 2, 1)]
            writer.close()

    asyncio.run(scenario())


def test_eof_mid_frame_frees_the_session(app_factory, tmp_path):
    async def scenario():
        async with GatedGateway(app_factory, tmp_path) as gateway:
            reader, writer = await gateway.open()
            half = protocol.encode_command(2, b"never finished")
            writer.write(protocol.encode_hello("quitter")
                         + protocol.encode_command(1, b"whole")
                         + half[:len(half) // 2])
            await writer.drain()
            assert (await read_frames(reader, 1))[0][0] == "welcome"
            door = gateway.door
            await gateway.wait_for(lambda: door.stats.commands_admitted == 1)
            writer.close()
            await gateway.wait_for(lambda: door.session_count == 0)
            assert door.stats.sessions_closed == 1

    asyncio.run(scenario())
