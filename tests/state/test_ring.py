"""Tests for the SPSC shared-memory command ring.

Single-threaded here (both roles played by the test); the cross-process
behavior rides through the fleet tests, where a real worker drains what the
parent pushed.  This file pins the byte-level contract: FIFO order,
length-prefix framing, byte-wise wraparound, and the bounded-capacity
backpressure semantics.
"""

import pytest

from repro.errors import BackpressureError, StateError
from repro.state.ring import (
    COMMAND_RING_BYTES,
    RECORD_HEADER_BYTES,
    SharedCommandRing,
    ring_slots,
)
from repro.state.shared import SharedArena


@pytest.fixture
def arena():
    with SharedArena.create(ring_slots(128)) as arena:
        yield arena


@pytest.fixture
def ring(arena):
    return SharedCommandRing(arena)


class TestBasics:
    def test_slots_shape(self):
        slots = ring_slots(256, prefix="x")
        assert [name for name, _, _ in slots] == ["x_ring", "x_ctrl"]
        assert slots[0][1] == (256,)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(StateError):
            ring_slots(RECORD_HEADER_BYTES)

    def test_default_capacity(self):
        assert COMMAND_RING_BYTES == 1 << 20

    def test_push_drain_fifo(self, ring):
        payloads = [b"alpha", b"", b"x" * 40]
        for payload in payloads:
            ring.push(payload)
        assert ring.pending_records == 3
        assert ring.pending_bytes == sum(
            RECORD_HEADER_BYTES + len(p) for p in payloads
        )
        assert ring.drain() == payloads
        assert ring.pending_records == 0
        assert ring.pending_bytes == 0
        assert ring.drain() == []

    def test_lifetime_counters(self, ring):
        for round_number in range(5):
            ring.push(b"abc")
            ring.push(b"defg")
            assert ring.drain() == [b"abc", b"defg"]
        assert ring.total_pushed == 10
        assert ring.total_drained == 10

    def test_drain_max_records(self, ring):
        for index in range(4):
            ring.push(bytes([index]))
        assert ring.drain(max_records=3) == [b"\x00", b"\x01", b"\x02"]
        assert ring.pending_records == 1
        assert ring.drain() == [b"\x03"]


class TestWraparound:
    def test_records_wrap_byte_wise(self, ring):
        """Push/drain far past the 128-byte capacity: records straddle the
        physical end of the slot and come back intact."""
        total = 0
        for index in range(100):
            payload = bytes([index % 251]) * (1 + index % 29)
            ring.push(payload)
            assert ring.drain() == [payload]
            total += 1
        assert ring.total_drained == total

    def test_batch_straddles_boundary(self, ring):
        # Advance the offsets near the end of the slot, then push a batch
        # whose bytes wrap mid-record.
        ring.push(b"y" * 100)
        assert ring.drain() == [b"y" * 100]
        batch = [b"a" * 20, b"b" * 20, b"c" * 20]
        assert ring.push_batch(batch) == 3
        assert ring.drain() == batch


class TestBackpressure:
    def test_try_push_refuses_when_full(self, ring):
        assert ring.try_push(b"z" * 60)  # 64 ring bytes
        assert ring.try_push(b"z" * 60)  # full: 128/128
        assert not ring.try_push(b"")
        assert ring.pending_records == 2

    def test_push_raises_typed(self, ring):
        ring.push(b"z" * 124)
        with pytest.raises(BackpressureError) as excinfo:
            ring.push(b"w")
        error = excinfo.value
        assert error.queue == "ring:cmd"
        assert error.depth == 128
        assert error.capacity == 128

    def test_drain_frees_capacity(self, ring):
        ring.push(b"z" * 124)
        assert not ring.try_push(b"w")
        ring.drain()
        assert ring.try_push(b"w")

    def test_push_batch_accepts_prefix(self, ring):
        accepted = ring.push_batch([b"q" * 40] * 5)
        assert accepted == 2  # 44 ring bytes each; the third does not fit
        assert ring.drain() == [b"q" * 40] * 2

    def test_oversized_record_rejected_outright(self, ring):
        with pytest.raises(StateError):
            ring.try_push(b"h" * 200)


class TestSharedView:
    def test_producer_and_consumer_views_share_state(self, arena):
        producer = SharedCommandRing(arena)
        consumer = SharedCommandRing(arena)
        producer.push(b"crossing")
        assert consumer.pending_records == 1
        assert consumer.drain() == [b"crossing"]
        assert producer.pending_records == 0

    def test_custom_prefix(self):
        slots = ring_slots(64, prefix="aux") + ring_slots(64, prefix="cmd")
        with SharedArena.create(slots) as arena:
            aux = SharedCommandRing(arena, prefix="aux")
            cmd = SharedCommandRing(arena, prefix="cmd")
            aux.push(b"left")
            cmd.push(b"right")
            assert aux.drain() == [b"left"]
            assert cmd.drain() == [b"right"]
