"""The benchmark's own game: a cheap, deterministic plan cycle.

The engine benchmarks of earlier PRs ran Knights and Archers, whose
``plan_tick`` took ~80% of a tick, so every checkpointing algorithm read the
same.  :class:`PlanCycleApp` draws its update plans once, at construction,
from the workload seed and then only indexes into them, so a tick measures
the engine (dirty tracking, copy-on-update, apply, logical log, checkpoint
cut) and not the game.  ``app.plan_share`` in the traced run checks that the
app stays under 5% of a tick.

Commands are 8-byte ``(row, column)`` cell writes; a tick's commands are
appended to its plan, so they are applied, logged and replayed like any
other update.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

import numpy as np

from repro.config import StateGeometry
from repro.engine.app import TickApplication, TickUpdatesPlan
from repro.state.table import GameStateTable
from repro.workloads.zipf import ZipfDistribution

#: Plans drawn per app; tick ``t`` serves ``plans[t % PLAN_CYCLE]``.
PLAN_CYCLE = 64
#: Zipf skew of rows and columns (paper Table 4 default), hot = low index.
ZIPF_THETA = 0.8
COLUMNS = 10
#: Most commands one tick's plan can carry: two sessions at their per-tick
#: limit (see workloads.COMMANDS_PER_TICK_LIMIT).
COMMAND_HEADROOM = 8192

_COMMAND = struct.Struct("<II")
#: One logged command inside a tick's command blob: u32 length + payload.
_BLOB_RECORD_WORDS = 1 + _COMMAND.size // 4


def encode_command(row: int, column: int) -> bytes:
    """The 8-byte wire payload of one cell-write command."""
    return _COMMAND.pack(row, column)


def commands_in_blob(blob: bytes) -> np.ndarray:
    """The ``(n, 2)`` row/column pairs of a logged tick's command blob.

    The blob is the engine's framing (u32 count, then u32 length + payload
    per command); every payload this benchmark sends is 8 bytes, so the
    blob is a fixed-stride u32 array.  Anything else is a harness bug.
    """
    if len(blob) <= 4:
        return np.empty((0, 2), dtype=np.int64)
    words = np.frombuffer(blob, dtype="<u4", offset=4)
    records = words.reshape(-1, _BLOB_RECORD_WORDS)
    if not (records[:, 0] == _COMMAND.size).all():
        raise ValueError("command blob holds a payload that is not 8 bytes")
    return records[:, 1:].astype(np.int64)


class PlanCycleApp(TickApplication):
    """``PLAN_CYCLE`` pre-drawn Zipf update plans served round-robin.

    Each plan's arrays keep ``COMMAND_HEADROOM`` spare slots at the end: a
    tick's commands are written there and the plan handed out is a view, so
    planning copies nothing of the 32k-update arrays (a concatenation cost
    ~100 us a tick, 2% of the tick it was measuring).  The slots are
    scratch, rewritten by every tick; one instance serves one shard and must
    not plan on two threads at once.
    """

    def __init__(self, rows: int, updates_per_tick: int, seed: int) -> None:
        self._geometry = StateGeometry(rows=rows, columns=COLUMNS)
        self._updates = updates_per_tick
        rng = np.random.default_rng(seed)
        row_dist = ZipfDistribution(rows, ZIPF_THETA)
        column_dist = ZipfDistribution(COLUMNS, ZIPF_THETA)
        spare = np.zeros(COMMAND_HEADROOM, dtype=np.int64)
        self._plans = []
        for _ in range(PLAN_CYCLE):
            self._plans.append((
                np.concatenate([row_dist.sample(updates_per_tick, rng), spare]),
                np.concatenate(
                    [column_dist.sample(updates_per_tick, rng), spare]),
                rng.integers(0, 1 << 20, size=updates_per_tick,
                             dtype=np.uint32),
            ))
        self._values = np.empty(updates_per_tick + COMMAND_HEADROOM,
                                dtype=np.uint32)

    @property
    def geometry(self) -> StateGeometry:
        return self._geometry

    @property
    def dtype(self):
        return np.uint32

    def initialize(self, table, rng: np.random.Generator) -> None:
        table.fill_random(rng)

    def plan_tick(self, table, rng, tick: int) -> TickUpdatesPlan:
        return self.plan_tick_with_commands(table, rng, tick, b"")

    def plan_tick_with_commands(self, table, rng, tick: int,
                                commands: bytes) -> TickUpdatesPlan:
        rows, columns, values = self._plans[tick % PLAN_CYCLE]
        cells = commands_in_blob(commands)
        if len(cells) > COMMAND_HEADROOM:
            raise ValueError(
                f"{len(cells)} commands in one tick exceed the plan's "
                f"headroom of {COMMAND_HEADROOM}"
            )
        end = self._updates + len(cells)
        rows[self._updates:end] = cells[:, 0]
        columns[self._updates:end] = cells[:, 1]
        np.add(values, np.uint32(tick), out=self._values[:self._updates])
        self._values[self._updates:end] = tick
        return TickUpdatesPlan(rows[:end], columns[:end], self._values[:end])


def table_digest(table) -> str:
    """blake2b of the table's cells (the state recovery must reproduce)."""
    return hashlib.blake2b(
        np.ascontiguousarray(table.cells).tobytes(), digest_size=16
    ).hexdigest()


def oracle_digest(app: PlanCycleApp, seed: int, records: Iterable) -> str:
    """Digest of the state the logged ticks produce, with no checkpoint code.

    Re-initializes from ``seed`` and replays every logical-log record with
    plain ``plan_tick_with_commands`` + ``apply_updates`` -- what recovery
    must equal whichever checkpoint it restored from.
    """
    table = GameStateTable(app.geometry, dtype=app.dtype)
    rng = np.random.default_rng(seed)
    app.initialize(table, rng)
    for record in records:
        rng.bit_generator.state = record.rng_state
        plan = app.plan_tick_with_commands(
            table, rng, record.tick, record.command_payload
        )
        table.apply_updates(plan.rows, plan.columns, plan.values)
    return table_digest(table)


def command_keys(cells: np.ndarray) -> np.ndarray:
    """One u64 per ``(row, column)`` command, for multiset comparison."""
    cells = np.asarray(cells, dtype=np.uint64).reshape(-1, 2)
    return (cells[:, 0] << np.uint64(32)) | cells[:, 1]


def logged_command_keys(records: Iterable) -> np.ndarray:
    """Keys of every command the logical log holds."""
    parts = [commands_in_blob(record.command_payload) for record in records]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return command_keys(np.concatenate(parts))


def commands_not_logged(acked_keys: np.ndarray,
                        logged_keys: np.ndarray) -> int:
    """How many acked commands the log does not cover (multiset difference).

    An APPLIED ack promises the command's tick is durably logged, so this
    must be 0 after any crash.
    """
    acked, acked_counts = np.unique(acked_keys, return_counts=True)
    logged, logged_counts = np.unique(logged_keys, return_counts=True)
    _, in_acked, in_logged = np.intersect1d(
        acked, logged, assume_unique=True, return_indices=True)
    covered = np.zeros(len(acked), dtype=np.int64)
    covered[in_acked] = logged_counts[in_logged]
    return int(np.maximum(acked_counts - covered, 0).sum())
