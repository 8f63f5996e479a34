"""Crash recovery: restore the newest checkpoint, replay the logical log.

"In the event of a crash, the game state can be reconstructed by reading the
most recent checkpoint and replaying the logical log." (Section 1.)

:class:`RecoveryManager` implements both restore paths:

* **double backup** -- read the full data region of the backup whose header
  carries the newest ``COMPLETE`` epoch;
* **checkpoint log** -- reconstruct the image from the newest committed
  checkpoint (bounded by the last full dump).

Replay then re-runs the deterministic application for every logged tick after
the checkpoint's cut, restoring the recorded random-generator state before
each tick.  If no checkpoint ever committed, recovery falls back to
re-initializing from the server's seed and replaying the whole log.

Two modes are offered.  ``serial`` is the paper's model
(``dT_restore + dT_replay``): the whole image is read before the first tick
replays.  ``pipelined`` overlaps the two phases *within* one shard: a reader
thread streams checkpoint regions (ascending object-id order, see
:class:`~repro.storage.double_backup.StreamingRestore`) through a bounded
queue while the main thread installs them and replays each logged tick as
soon as the objects it touches are resident
(:class:`~repro.state.dirty.RegionResidency` watermark), stalling only on a
true read-before-restore dependency.  Applications that can predict a tick's
object scope from the logged rng state and commands alone override
:meth:`~repro.engine.app.TickApplication.tick_object_scope`; the default
(None = unknown) waits for full residency per tick but still overlaps the
restore read with queue drains.  Both modes produce byte-identical tables.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from queue import Empty, Full, Queue
from typing import Optional, Tuple, Union

import numpy as np

from repro.engine.app import TickApplication
from repro.obs.metrics import global_registry
from repro.obs.trace import get_tracer
from repro.errors import (
    ConfigurationError,
    NoConsistentCheckpointError,
    RecoveryError,
)
from repro.state.dirty import RegionResidency
from repro.state.table import GameStateTable
from repro.storage.action_log import ActionLog
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore

#: Intra-shard recovery modes of :class:`RecoveryManager`.
RECOVERY_MODES = ("serial", "pipelined")

#: Bounded restore-queue depth (regions) between reader and replay threads.
DEFAULT_QUEUE_REGIONS = 8


@dataclass(frozen=True)
class RecoveryReport:
    """What recovery did and what it produced."""

    table: GameStateTable
    rng: np.random.Generator
    #: Next tick the recovered server would execute (= crash-time next tick).
    next_tick: int
    #: Cut tick of the restored checkpoint (-1 when none was found).
    checkpoint_tick: int
    #: Epoch of the restored checkpoint (0 when none was found).
    checkpoint_epoch: int
    ticks_replayed: int
    used_seed_fallback: bool
    #: Measured wall time until the checkpoint image was fully resident
    #: (dT_restore).  Under ``pipelined`` this includes replay work that ran
    #: concurrently; see :attr:`replay_overlap_seconds`.
    restore_seconds: float = 0.0
    #: Measured wall time re-running logged ticks *after* the image was fully
    #: resident (dT_replay); restore + replay is always the true wall clock.
    replay_seconds: float = 0.0
    #: Recovery mode that produced this report.
    mode: str = "serial"
    #: Checkpoint image bytes installed into the table.
    bytes_restored: int = 0
    #: Bytes read from the checkpoint files to produce them (headers, every
    #: record the restore verified, re-read spans); ``bytes_read /
    #: bytes_restored`` is the restore's read amplification.
    bytes_read: int = 0
    #: Replay compute that ran while the restore read was still in flight --
    #: the time pipelining hid (0 under ``serial``).
    replay_overlap_seconds: float = 0.0
    #: Ticks whose replay blocked on a not-yet-resident region.
    stall_count: int = 0

    @property
    def recovery_seconds(self) -> float:
        """Total measured recovery time: restore + replay."""
        return self.restore_seconds + self.replay_seconds


class RecoveryManager:
    """Rebuilds a crashed :class:`~repro.engine.server.DurableGameServer`."""

    def __init__(
        self,
        app: TickApplication,
        directory: Union[str, os.PathLike],
        seed: int = 0,
        mode: str = "serial",
        region_objects: Optional[int] = None,
        queue_regions: int = DEFAULT_QUEUE_REGIONS,
    ) -> None:
        if mode not in RECOVERY_MODES:
            raise ConfigurationError(
                f"mode must be one of {RECOVERY_MODES}, got {mode!r}"
            )
        if queue_regions <= 0:
            raise ConfigurationError(
                f"queue_regions must be positive, got {queue_regions}"
            )
        self._app = app
        self._directory = os.fspath(directory)
        self._seed = seed
        self._mode = mode
        self._region_objects = region_objects
        self._queue_regions = queue_regions

    def recover(self) -> RecoveryReport:
        """Restore the checkpoint and replay the log; returns the live state."""
        with get_tracer().span("recover", mode=self._mode):
            if self._mode == "pipelined":
                report = self._recover_pipelined()
            else:
                report = self._recover_serial()
        self._publish(report)
        return report

    @staticmethod
    def _publish(report: RecoveryReport) -> None:
        """Publish the report's outcome to the process-global metrics row."""
        row = global_registry()
        row.counter("recoveries_completed").inc()
        row.counter("recovery_stalls").inc(report.stall_count)
        row.counter("recovery_bytes_restored").inc(report.bytes_restored)
        row.counter("recovery_bytes_read").inc(report.bytes_read)
        row.counter("recovery_replay_ticks").inc(report.ticks_replayed)

    # ------------------------------------------------------------------
    # Serial mode (the paper's dT_restore + dT_replay)
    # ------------------------------------------------------------------

    def _recover_serial(self) -> RecoveryReport:
        geometry = self._app.geometry
        table = GameStateTable(geometry, dtype=self._app.dtype)
        tracer = get_tracer()
        restore_started = time.perf_counter()
        with tracer.span("restore"):
            # The stores fill the table's own memory: no staging image.
            image = table.image_buffer()
            found, bytes_read = self._restore_checkpoint(geometry, image)
            used_fallback = found is None

            rng = np.random.default_rng(self._seed)
            if used_fallback:
                # No durable checkpoint: rebuild tick -1 state from the seed.
                self._app.initialize(table, rng)
                epoch, cut_tick = 0, -1
            else:
                epoch, cut_tick = found
        restore_seconds = time.perf_counter() - restore_started

        replay_started = time.perf_counter()
        with tracer.span("replay"):
            replayed = self._replay(table, rng, start_tick=cut_tick + 1)
        replay_seconds = time.perf_counter() - replay_started
        return RecoveryReport(
            table=table,
            rng=rng,
            next_tick=cut_tick + 1 + replayed,
            checkpoint_tick=cut_tick,
            checkpoint_epoch=epoch,
            ticks_replayed=replayed,
            used_seed_fallback=used_fallback,
            restore_seconds=restore_seconds,
            replay_seconds=replay_seconds,
            mode="serial",
            bytes_restored=0 if used_fallback else image.nbytes,
            bytes_read=bytes_read,
        )

    # ------------------------------------------------------------------
    # Pipelined mode (restore reader || log replay)
    # ------------------------------------------------------------------

    def _recover_pipelined(self) -> RecoveryReport:
        geometry = self._app.geometry
        table = GameStateTable(geometry, dtype=self._app.dtype)
        started = time.perf_counter()
        opened = self._open_streaming(geometry)
        rng = np.random.default_rng(self._seed)

        if opened is None:
            # No durable checkpoint: nothing to stream, so this degenerates
            # to the serial seed fallback (full replay from tick 0).
            self._app.initialize(table, rng)
            restore_seconds = time.perf_counter() - started
            replay_started = time.perf_counter()
            replayed = self._replay(table, rng, start_tick=0)
            return RecoveryReport(
                table=table,
                rng=rng,
                next_tick=replayed,
                checkpoint_tick=-1,
                checkpoint_epoch=0,
                ticks_replayed=replayed,
                used_seed_fallback=True,
                restore_seconds=restore_seconds,
                replay_seconds=time.perf_counter() - replay_started,
                mode="pipelined",
            )

        store, restore = opened
        cut_tick = restore.cut_tick
        num_objects = restore.num_objects
        residency = RegionResidency(num_objects)
        queue: Queue = Queue(self._queue_regions)
        abort = threading.Event()
        reader = threading.Thread(
            target=self._restore_reader,
            args=(restore.regions, queue, abort),
            name="repro-restore-reader",
            daemon=True,
        )
        bytes_restored = 0
        stall_count = 0
        overlap_seconds = 0.0
        restore_done_at: Optional[float] = None
        sentinel_seen = False
        replayed = 0
        # Scratch generator for scope prediction; its state is overwritten
        # with each record's logged state so draws mirror the replay's.
        scratch = np.random.default_rng(0)

        def install(item) -> None:
            nonlocal bytes_restored, restore_done_at
            if isinstance(item, BaseException):
                raise item
            start, count, payload = item
            table.load_object_range(start, count, payload)
            residency.mark_resident(start, start + count)
            bytes_restored += len(payload)
            if restore_done_at is None and residency.complete:
                restore_done_at = time.perf_counter()

        try:
            reader.start()
            for record in self._iter_replay_records(cut_tick + 1):
                # Opportunistic drain: install whatever has already landed.
                while not sentinel_seen:
                    try:
                        item = queue.get_nowait()
                    except Empty:
                        break
                    if item is None:
                        sentinel_seen = True
                    else:
                        install(item)
                scratch.bit_generator.state = record.rng_state
                scope = self._app.tick_object_scope(
                    geometry, scratch, record.tick, record.command_payload
                )
                if scope is None:
                    needed = num_objects
                else:
                    scope = np.asarray(scope)
                    needed = 0 if scope.size == 0 else int(scope.max()) + 1
                stalled = False
                while residency.watermark < needed and not sentinel_seen:
                    # True read-before-restore dependency: block on the
                    # reader until the scope's regions are in.
                    stalled = True
                    item = queue.get()
                    if item is None:
                        sentinel_seen = True
                    else:
                        install(item)
                if residency.watermark < needed:
                    raise RecoveryError(
                        f"restore stream ended at object "
                        f"{residency.watermark} but tick {record.tick} "
                        f"needs objects up to {needed}"
                    )
                tick_started = time.perf_counter()
                rng.bit_generator.state = record.rng_state
                plan = self._app.plan_tick_with_commands(
                    table, rng, record.tick, record.command_payload
                )
                table.apply_updates(
                    plan.rows, plan.columns, plan.values, validate=False
                )
                if restore_done_at is None:
                    overlap_seconds += time.perf_counter() - tick_started
                if stalled:
                    stall_count += 1
                    get_tracer().instant(
                        "replay_stall", tick=record.tick, needed=needed
                    )
                replayed += 1
            # Replay exhausted; finish installing the rest of the image.
            while not sentinel_seen:
                item = queue.get()
                if item is None:
                    sentinel_seen = True
                else:
                    install(item)
            if not residency.complete:
                raise RecoveryError(
                    f"restore stream ended at object {residency.watermark} "
                    f"of {num_objects}"
                )
        finally:
            abort.set()
            # Unblock a reader stuck on a full queue, then reap it.
            try:
                while True:
                    queue.get_nowait()
            except Empty:
                pass
            reader.join(timeout=10.0)
            store.close()

        total = time.perf_counter() - started
        restore_seconds = (restore_done_at or time.perf_counter()) - started
        return RecoveryReport(
            table=table,
            rng=rng,
            next_tick=cut_tick + 1 + replayed,
            checkpoint_tick=cut_tick,
            checkpoint_epoch=restore.epoch,
            ticks_replayed=replayed,
            used_seed_fallback=False,
            restore_seconds=restore_seconds,
            replay_seconds=max(0.0, total - restore_seconds),
            mode="pipelined",
            bytes_restored=bytes_restored,
            bytes_read=store.bytes_read,
            replay_overlap_seconds=overlap_seconds,
            stall_count=stall_count,
        )

    @staticmethod
    def _restore_reader(regions, queue: Queue, abort: threading.Event) -> None:
        """Reader-thread body: stream regions into the bounded queue.

        Ends with a ``None`` sentinel; a read failure is delivered as the
        exception object itself, re-raised by the installer on the main
        thread.  Every put polls the abort event so a cancelled recovery
        never leaves the thread wedged against a full queue.
        """

        def put(item) -> bool:
            while not abort.is_set():
                try:
                    queue.put(item, timeout=0.05)
                    return True
                except Full:
                    continue
            return False

        try:
            for item in regions:
                if not put(item):
                    return
            put(None)
        except BaseException as exc:  # delivered to the main thread
            put(exc)

    def _open_streaming(self, geometry):
        """Open whichever store exists and begin a streaming restore.

        Returns ``(store, StreamingRestore)`` with the store left open (the
        region iterator reads lazily), or None when no consistent checkpoint
        is available.
        """
        double_path = os.path.join(
            self._directory, DoubleBackupStore.FILE_NAMES[0]
        )
        log_path = os.path.join(self._directory, CheckpointLogStore.FILE_NAME)
        if os.path.exists(double_path):
            store = DoubleBackupStore(self._directory, geometry)
        elif os.path.exists(log_path):
            store = CheckpointLogStore(self._directory, geometry)
        else:
            return None
        try:
            return store, store.restore_image_streaming(self._region_objects)
        except NoConsistentCheckpointError:
            store.close()
            return None

    # ------------------------------------------------------------------
    # Restore (serial)
    # ------------------------------------------------------------------

    def _restore_checkpoint(
        self, geometry, out
    ) -> Tuple[Optional[Tuple[int, int]], int]:
        """Fill ``out`` with the newest consistent image of whichever store
        exists.

        Returns ``((epoch, cut_tick), bytes_read)``; the pair is None when no
        consistent checkpoint was found, and ``out`` is then all zero as the
        caller allocated it.
        """
        double_path = os.path.join(
            self._directory, DoubleBackupStore.FILE_NAMES[0]
        )
        log_path = os.path.join(self._directory, CheckpointLogStore.FILE_NAME)
        found = None
        if os.path.exists(double_path):
            with DoubleBackupStore(self._directory, geometry) as store:
                try:
                    backup = store.latest_consistent()
                    store.read_image(backup.backup_index, out=out)
                    found = backup.epoch, backup.tick
                except NoConsistentCheckpointError:
                    pass
                return found, store.bytes_read
        if os.path.exists(log_path):
            with CheckpointLogStore(self._directory, geometry) as store:
                try:
                    found = store.restore_image(out=out)[1:]
                except NoConsistentCheckpointError:
                    pass
                return found, store.bytes_read
        return None, 0

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _iter_replay_records(self, start_tick: int):
        """Yield logged tick records from ``start_tick``, checking for gaps.

        A log whose first replayable record is newer than ``start_tick`` (or
        that skips a tick anywhere) cannot reproduce the lost state;
        recovery must fail loudly rather than replay around the hole.
        """
        log_path = os.path.join(self._directory, ActionLog.FILE_NAME)
        if not os.path.exists(log_path):
            return
        expected = start_tick
        with ActionLog(self._directory) as log:
            for record in log.records(start_tick=start_tick):
                if record.tick != expected:
                    raise RecoveryError(
                        f"logical log skips from tick {expected} to "
                        f"{record.tick}; cannot replay"
                    )
                yield record
                expected += 1

    def _replay(
        self, table: GameStateTable, rng: np.random.Generator, start_tick: int
    ) -> int:
        """Re-run every logged tick from ``start_tick``; returns the count."""
        replayed = 0
        for record in self._iter_replay_records(start_tick):
            rng.bit_generator.state = record.rng_state
            plan = self._app.plan_tick_with_commands(
                table, rng, record.tick, record.command_payload
            )
            # The updates were bounds-checked when first applied live;
            # replay trusts the log.
            table.apply_updates(
                plan.rows, plan.columns, plan.values, validate=False
            )
            replayed += 1
        return replayed
