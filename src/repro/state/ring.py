"""A single-producer single-consumer command ring in shared memory.

The serving path hands each shard worker *one batch of client commands per
tick* instead of one pipe write per command.  The transport is a classic
SPSC byte ring living in the shard's :class:`~repro.state.shared.SharedArena`:

* a ``uint8`` data slot of ``capacity`` bytes holding length-prefixed
  records (``u32 little-endian length`` + payload), wrapping byte-wise at
  the end of the slot;
* an ``int64`` control slot with seqlock-style monotonically increasing
  **head** (consumer) and **tail** (producer) byte counters, plus lifetime
  push/drain record counters.

Each control field has exactly one writing side -- the producer (the fleet
parent / gateway tick driver) owns ``tail`` and ``pushed``, the consumer
(the shard worker's tick loop) owns ``head`` and ``drained`` -- so plain
aligned int64 stores are race-free on every platform the fork backend runs
on (the same argument the shard control row relies on).  Publication order
is the seqlock discipline: the producer copies record bytes *first* and
publishes ``tail`` last; the consumer reads ``tail`` first and the bytes
after, so it can never observe a record before its bytes are in place.

Occupancy is ``tail - head`` (both only grow; offsets are taken modulo the
capacity).  A push that does not fit raises
:class:`~repro.errors.BackpressureError` -- the ring never grows and never
overwrites unconsumed records, which is the backpressure contract the
gateway's bounded queues surface to clients.

Durability note: the ring is *volatile* hand-off memory, not a log.  A
command becomes durable only when the consuming worker's tick appends it to
the shard's logical log.  If a worker dies mid-drain, drained-but-unlogged
commands are simply lost (a real client would retry); recovery replays from
the last durable cut and can never apply a command twice.
"""

from __future__ import annotations

import struct
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import BackpressureError, StateError
from repro.state.shared import SharedArena, SlotSpec

#: Control-slot fields (int64 each; single writer per field).
R_TAIL = 0      # producer: total bytes ever written
R_HEAD = 1      # consumer: total bytes ever consumed
R_PUSHED = 2    # producer: total records ever pushed
R_DRAINED = 3   # consumer: total records ever drained
NUM_RING_FIELDS = 4

#: Bytes of framing per record (little-endian u32 length prefix).
RECORD_HEADER_BYTES = 4
_LENGTH = struct.Struct("<I")

#: Capacity of each shard's command ring: comfortably thousands of short
#: commands.
COMMAND_RING_BYTES = 1 << 20


def ring_slots(capacity: int, prefix: str = "cmd") -> List[SlotSpec]:
    """Arena slot specs for one ring: ``<prefix>_ring`` + ``<prefix>_ctrl``."""
    if capacity < RECORD_HEADER_BYTES + 1:
        raise StateError(f"ring capacity {capacity} is too small")
    return [
        (f"{prefix}_ring", (int(capacity),), np.dtype(np.uint8)),
        (f"{prefix}_ctrl", (NUM_RING_FIELDS,), np.dtype(np.int64)),
    ]


class SharedCommandRing:
    """SPSC length-prefixed byte ring over two arena slots.

    Exactly one process (or thread) may push and exactly one may drain; the
    two sides need no lock.  Both sides construct the same view over the
    same arena -- the roles differ only in which methods they call.
    """

    def __init__(self, arena: SharedArena, prefix: str = "cmd") -> None:
        self._data = arena.array(f"{prefix}_ring")
        self._ctrl = arena.array(f"{prefix}_ctrl")
        self._capacity = int(self._data.size)
        self._prefix = prefix

    @classmethod
    def private(cls, capacity: int) -> "SharedCommandRing":
        """The same ring over process-private memory, for a producer and a
        consumer that are threads of one process."""
        slots = {
            name: np.zeros(shape, dtype)
            for name, shape, dtype in ring_slots(capacity)
        }
        return cls(SimpleNamespace(array=slots.__getitem__))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Usable ring size in bytes (framing included)."""
        return self._capacity

    @property
    def pending_bytes(self) -> int:
        """Bytes currently sitting in the ring (framing included)."""
        return int(self._ctrl[R_TAIL]) - int(self._ctrl[R_HEAD])

    @property
    def pending_records(self) -> int:
        """Records pushed but not yet drained."""
        return int(self._ctrl[R_PUSHED]) - int(self._ctrl[R_DRAINED])

    @property
    def total_pushed(self) -> int:
        """Lifetime count of records pushed."""
        return int(self._ctrl[R_PUSHED])

    @property
    def total_drained(self) -> int:
        """Lifetime count of records drained."""
        return int(self._ctrl[R_DRAINED])

    @staticmethod
    def record_bytes(payload: bytes) -> int:
        """Ring bytes one payload occupies (framing included)."""
        return RECORD_HEADER_BYTES + len(payload)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def _copy_in(self, offset: int, blob: bytes) -> None:
        """Copy ``blob`` into the ring at byte ``offset`` (may wrap once)."""
        view = np.frombuffer(blob, dtype=np.uint8)
        first = min(len(blob), self._capacity - offset)
        self._data[offset:offset + first] = view[:first]
        if first < len(blob):
            self._data[: len(blob) - first] = view[first:]

    def try_push(self, payload: bytes) -> bool:
        """Append one record; False (nothing written) when it does not fit."""
        return self.push_batch([payload]) == 1

    def push(self, payload: bytes) -> None:
        """Append one record or raise a typed :class:`BackpressureError`."""
        if not self.try_push(payload):
            raise BackpressureError(
                f"command ring {self._prefix!r} is full "
                f"({self.pending_bytes}/{self._capacity} bytes, "
                f"{self.pending_records} records pending)",
                queue=f"ring:{self._prefix}",
                depth=self.pending_bytes,
                capacity=self._capacity,
            )

    def push_batch(self, payloads: Sequence[bytes]) -> int:
        """Append records until one does not fit; returns how many landed.

        The prefix that fits is framed into one blob, copied in once and
        published with one ``tail`` store.  A record that could never fit
        raises :class:`StateError` with nothing written.
        """
        tail = int(self._ctrl[R_TAIL])
        free = self._capacity - (tail - int(self._ctrl[R_HEAD]))
        parts: List[bytes] = []
        used = 0
        for payload in payloads:
            need = RECORD_HEADER_BYTES + len(payload)
            if need > self._capacity:
                raise StateError(
                    f"command of {len(payload)} bytes can never fit a "
                    f"{self._capacity}-byte ring"
                )
            if used + need > free:
                break
            parts.append(_LENGTH.pack(len(payload)))
            parts.append(payload)
            used += need
        if not used:
            return 0
        accepted = len(parts) // 2
        self._copy_in(tail % self._capacity, b"".join(parts))
        # Publish last: the consumer reads tail before the bytes, so it can
        # never see a record whose bytes are not in place yet.
        self._ctrl[R_PUSHED] += accepted
        self._ctrl[R_TAIL] = tail + used
        return accepted

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def _copy_out(self, offset: int, count: int) -> bytes:
        """Read ``count`` bytes starting at ``offset`` (may wrap once)."""
        first = min(count, self._capacity - offset)
        if first == count:
            return self._data[offset:offset + count].tobytes()
        return (
            self._data[offset:].tobytes()
            + self._data[: count - first].tobytes()
        )

    def drain(self, max_records: Optional[int] = None) -> List[bytes]:
        """Consume every record currently visible (the per-tick batch).

        Reads ``tail`` once -- records pushed after the snapshot wait for
        the next drain, which is exactly the per-tick batch boundary.  The
        pending span is copied out once and the records sliced from it.
        """
        tail = int(self._ctrl[R_TAIL])
        head = int(self._ctrl[R_HEAD])
        if head == tail:
            return []
        span = self._copy_out(head % self._capacity, tail - head)
        drained: List[bytes] = []
        offset = 0
        while offset < len(span):
            if max_records is not None and len(drained) >= max_records:
                break
            start = offset + RECORD_HEADER_BYTES
            if start > len(span):
                raise StateError("torn ring record: header cut short")
            (length,) = _LENGTH.unpack_from(span, offset)
            if start + length > len(span):
                raise StateError(
                    f"torn ring record: header claims {length} bytes but "
                    f"only {len(span) - start} are pending"
                )
            drained.append(span[start:start + length])
            offset = start + length
        self._ctrl[R_DRAINED] += len(drained)
        self._ctrl[R_HEAD] = head + offset
        return drained
