"""The durable game server: tick loop + checkpointing + logical logging.

:class:`DurableGameServer` is the single-shard game server of the paper's
architecture (Figure 1), reduced to its persistence-relevant core.  Each call
to :meth:`run_tick`:

1. captures the random generator state and asks the application to *plan*
   the tick's updates;
2. once the plan passes its bounds check, writes the tick's logical-log
   record, whose fsync runs beside steps 3-5;
3. routes the touched atomic objects through the checkpointing framework
   (saving old values where the algorithm requires it);
4. applies the updates to the in-memory table;
5. surfaces a failure of the checkpoint writer -- the
   :class:`~repro.engine.writer_pool.CheckpointWriterPool` worker that
   overlaps the I/O with game ticks (``writer_pool=``), or without one the
   :class:`~repro.engine.writer.InlineWriter` that flushes each checkpoint
   on the game thread at its cut;
6. waits until the record is durable; and
7. runs the framework's end-of-tick boundary, finishing and starting
   checkpoints.

A failure after the record's write -- its fsync, or the checkpoint started
at the boundary -- leaves the tick half-run, and the server must then be
recovered.

:meth:`crash` abandons all in-memory state, after which
:class:`~repro.engine.recovery.RecoveryManager` can rebuild the exact
pre-crash table from the on-disk checkpoint plus log replay.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.core.framework import CheckpointFramework
from repro.core.plan import DiskLayout
from repro.core.registry import make_policy
from repro.engine.app import TickApplication
from repro.engine.executor import RealExecutor
from repro.errors import EngineError
from repro.state.table import GameStateTable
from repro.storage.action_log import ActionLog, TickRecord
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore


@dataclass
class ServerStats:
    """Counters accumulated over a server's lifetime."""

    ticks_run: int = 0
    updates_applied: int = 0
    checkpoints_started: int = 0
    checkpoints_completed: int = 0
    sync_copy_seconds: float = 0.0
    handle_update_seconds: float = 0.0
    bytes_written: int = 0
    #: Seconds the asynchronous writer thread spent inside checkpoints.
    writer_busy_seconds: float = 0.0
    #: Ticks that ran while a checkpoint write was still in flight.
    checkpoint_overlap_ticks: int = 0
    #: Objects written by the newest completed checkpoint (a scalar, like
    #: every field: a process shard returns them in its control row).
    last_checkpoint_write_count: int = 0
    #: Seconds ticks spent waiting for their log record's fsync.
    log_wait_seconds: float = 0.0


class DurableGameServer:
    """Runs a deterministic tick application with durable checkpointing."""

    def __init__(
        self,
        app: TickApplication,
        directory: Union[str, os.PathLike],
        algorithm: str = "copy-on-update",
        seed: int = 0,
        # None: a full dump once the partials since the last one add up to
        # the state, bounding the checkpoint log below two images.
        full_dump_period: Optional[int] = None,
        fsync_policy: str = "never",
        min_checkpoint_interval_ticks: int = 1,
        writer_pool=None,
        table: Optional[GameStateTable] = None,
        writer=None,
    ) -> None:
        if min_checkpoint_interval_ticks < 1:
            raise EngineError(
                "min_checkpoint_interval_ticks must be >= 1, got "
                f"{min_checkpoint_interval_ticks}"
            )
        self._app = app
        self._directory = os.fspath(directory)
        self._seed = seed
        self._min_checkpoint_interval = min_checkpoint_interval_ticks
        self._last_checkpoint_start_tick = -min_checkpoint_interval_ticks
        geometry = app.geometry
        if table is None:
            table = GameStateTable(geometry, dtype=app.dtype)
        else:
            # Caller-provided table (e.g. a SharedGameStateTable living in a
            # shared-memory arena so another process can read the state).
            if table.geometry != geometry:
                raise EngineError(
                    f"provided table geometry {table.geometry} does not "
                    f"match the application's {geometry}"
                )
            if table.dtype != np.dtype(app.dtype):
                raise EngineError(
                    f"provided table dtype {table.dtype} does not match "
                    f"the application's {np.dtype(app.dtype)}"
                )
        self._table = table
        self._rng = np.random.default_rng(seed)
        app.initialize(self._table, self._rng)

        self._policy = make_policy(
            algorithm, geometry.num_objects, full_dump_period=full_dump_period
        )
        # The logical log shares the checkpoint stores' durability policy so
        # fsync sweeps compare the whole write path apples-to-apples.  It
        # opens first, so refusing a used directory leaves nothing open.
        self._action_log = ActionLog(self._directory, fsync_policy=fsync_policy)
        if (self._action_log.last_tick is not None
                or self._action_log.sealed_segments):
            self._action_log.close()
            raise EngineError(
                f"{self._directory} already contains a server's logs; "
                "recover it instead of starting fresh"
            )
        store_type = (
            DoubleBackupStore
            if self._policy.layout is DiskLayout.DOUBLE_BACKUP
            else CheckpointLogStore
        )
        self._store = store_type(
            self._directory, geometry, fsync_policy=fsync_policy
        )
        self._executor = RealExecutor(
            self._table,
            self._store,
            writer_pool=writer_pool,
            writer=writer,
        )
        self._framework = CheckpointFramework(self._policy, self._executor)
        self._next_tick = 0
        self._crashed = False
        self._failed = False
        self._closed = False
        self._pending_commands: List[bytes] = []
        self.stats = ServerStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def table(self) -> GameStateTable:
        """The live in-memory game state."""
        return self._table

    @property
    def directory(self) -> str:
        """Directory holding the checkpoint store and logical log."""
        return self._directory

    @property
    def store(self):
        """The checkpoint store the server's checkpoints land in."""
        return self._store

    @property
    def algorithm_name(self) -> str:
        """Display name of the checkpointing algorithm in use."""
        return self._policy.name

    @property
    def ticks_run(self) -> int:
        """Number of ticks executed so far."""
        return self._next_tick

    @property
    def last_committed_checkpoint_tick(self) -> Optional[int]:
        """Cut tick of the newest durable checkpoint, if any, as the writer
        tracks it (the store's headers may belong to a writer thread)."""
        committed = self._executor.writer.last_committed
        return None if committed is None else committed[1]

    @property
    def last_cut_tick(self) -> Optional[int]:
        """Cut tick of the newest checkpoint started, durable or not."""
        return self._executor.last_cut_tick

    @property
    def bytes_written(self) -> int:
        """Checkpoint bytes written so far, read live from the executor.

        Unlike ``stats.bytes_written`` (which advances only with
        ``checkpoints_completed``) this also counts flushes that landed
        since -- the number a telemetry scrape between ticks wants.
        """
        return self._executor.writer.totals()[0]

    # ------------------------------------------------------------------
    # The tick loop
    # ------------------------------------------------------------------

    def submit_command(self, payload: bytes) -> None:
        """Queue a client command for the next tick.

        Commands are batched per tick, handed to the application's
        :meth:`~repro.engine.app.TickApplication.plan_tick_with_commands`,
        and durably logged so recovery replays them identically.
        """
        if not isinstance(payload, bytes):
            raise EngineError(
                f"commands are raw bytes, got {type(payload).__name__}"
            )
        self._pending_commands.append(payload)

    @staticmethod
    def _pack_commands(commands: List[bytes]) -> bytes:
        """Length-prefix framing so a batch round-trips through one blob."""
        parts = [len(commands).to_bytes(4, "little")]
        for command in commands:
            parts.append(len(command).to_bytes(4, "little"))
            parts.append(command)
        return b"".join(parts)

    @staticmethod
    def unpack_commands(blob: bytes) -> List[bytes]:
        """Inverse of :meth:`_pack_commands` (used by applications)."""
        if not blob:
            return []
        count = int.from_bytes(blob[:4], "little")
        commands = []
        offset = 4
        for _ in range(count):
            length = int.from_bytes(blob[offset: offset + 4], "little")
            offset += 4
            commands.append(blob[offset: offset + length])
            offset += length
        return commands

    def run_tick(self) -> int:
        """Execute one game tick; returns the number of cell updates."""
        if self._crashed:
            raise EngineError("server has crashed; recover it instead")
        if self._failed:
            raise EngineError("server failed mid-tick; recover it instead")
        if self._closed:
            raise EngineError("server is closed")
        tick = self._next_tick
        rng_state = self._rng.bit_generator.state
        command_blob = self._pack_commands(self._pending_commands)
        self._pending_commands = []

        plan = self._app.plan_tick_with_commands(
            self._table, self._rng, tick, command_blob
        )
        # One pass over the plan: bounds-check it before anything is marked,
        # then derive the flat cell index once -- the touched objects come
        # from it here and the values land through it below.
        geometry = self._table.geometry
        self._table.check_updates(plan.rows, plan.columns)
        # The record is fixed before the tick runs: write it now and fsync
        # it beside the tick.  From here to the boundary a failure is fatal.
        self._failed = True
        self._action_log.append(TickRecord(
            tick=tick, rng_state=rng_state, command_payload=command_blob
        ))
        cell_index = geometry.cell_index(plan.rows, plan.columns)

        # Handle-Update runs before the updates land so old values survive.
        # It gets one object id per update: the policy's first-touch test is
        # the dedupe.
        self._framework.process_updates(
            geometry.object_of_cell(cell_index), plan.update_count
        )
        self._table.apply_updates(
            plan.rows, plan.columns, plan.values,
            validate=False, cell_index=cell_index,
        )

        # A writer failure surfaces here, then the tick boundary.
        if not self._executor.stable_write_finished():
            self.stats.checkpoint_overlap_ticks += 1
        self._executor.writer.check()
        # The tick is durable once its record is on disk; the boundary is
        # the only place a cut starts.
        self.stats.log_wait_seconds += self._action_log.wait_durable()
        self._executor.set_current_tick(tick)
        allow_start = (
            tick - self._last_checkpoint_start_tick
            >= self._min_checkpoint_interval
        )
        boundary = self._framework.end_of_tick(allow_start=allow_start)
        if boundary.started is not None:
            # Replay from this cut reads no older log segment.
            self._action_log.roll()
            self._last_checkpoint_start_tick = tick
        self._failed = False

        self.stats.ticks_run += 1
        self.stats.updates_applied += plan.update_count
        if boundary.started is not None:
            self.stats.checkpoints_started += 1
        if boundary.finished is not None:
            self.stats.checkpoints_completed += 1
            self.stats.last_checkpoint_write_count = (
                boundary.finished.write_count(self._table.geometry.num_objects)
            )
        self.stats.sync_copy_seconds = self._executor.sync_copy_seconds
        self.stats.handle_update_seconds = self._executor.handle_update_seconds
        (self.stats.bytes_written,
         self.stats.writer_busy_seconds) = self._executor.writer_totals()

        self._next_tick += 1
        return plan.update_count

    def run_ticks(self, count: int) -> None:
        """Execute ``count`` ticks."""
        for _ in range(count):
            self.run_tick()

    def wait_checkpoint_idle(self, timeout: Optional[float] = 60.0) -> None:
        """Block until no checkpoint write is queued or in flight.

        The determinism hook behind the fleet's ``checkpoint_barrier`` run
        mode: with every write finished before the next tick begins, the
        checkpoint schedule -- and therefore the bytes on disk -- becomes a
        pure function of the tick number, identical on every backend.
        """
        if not self._executor.writer.wait_idle(timeout=timeout):
            raise EngineError(
                f"checkpoint writer still busy after {timeout} s"
            )
        self._executor.stable_write_finished()

    # ------------------------------------------------------------------
    # Failure and shutdown
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: abandon all in-memory state mid-flight.

        Whatever reached the files stays; the in-progress checkpoint (if
        any) is left uncommitted, exactly as a process kill would.  In
        asynchronous mode the writer thread is told to abandon its job at
        the next chunk boundary and joined before the files close; a pending
        writer error (e.g. injected faults) is deliberately *not* re-raised
        -- the crash supersedes it.
        """
        if self._closed:
            raise EngineError("server is closed")
        self._crashed = True
        self._executor.shutdown()
        self._store.close()
        self._action_log.close()

    def close(self) -> None:
        """Orderly shutdown (does not finish the in-flight checkpoint)."""
        if self._closed:
            return
        if not self._crashed:
            self._executor.shutdown()
            self._store.close()
            self._action_log.close()
        self._closed = True

    def __enter__(self) -> "DurableGameServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
