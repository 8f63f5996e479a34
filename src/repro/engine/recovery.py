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

Recovery is the paper's model, ``dT_restore + dT_replay``: the stores fill
the table's own memory (:meth:`~repro.state.table.GameStateTable.image_buffer`)
and only then does the first logged tick replay.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.engine.app import TickApplication
from repro.obs.metrics import global_registry
from repro.obs.trace import get_tracer
from repro.errors import (
    NoConsistentCheckpointError,
    RecoveryError,
)
from repro.state.table import GameStateTable
from repro.storage.action_log import ActionLog
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore


@dataclass(frozen=True)
class RecoveryReport:
    """What recovery did and what it produced."""

    table: GameStateTable
    #: Builds :attr:`rng`.
    _rng: Callable[[], np.random.Generator] = field(repr=False, compare=False)
    #: Next tick the recovered server would execute (= crash-time next tick).
    next_tick: int
    #: Cut tick of the restored checkpoint (-1 when none was found).
    checkpoint_tick: int
    #: Epoch of the restored checkpoint (0 when none was found).
    checkpoint_epoch: int
    ticks_replayed: int
    used_seed_fallback: bool
    #: Measured wall time until the checkpoint image was fully resident
    #: (dT_restore).
    restore_seconds: float = 0.0
    #: Measured wall time re-running logged ticks *after* the image was fully
    #: resident (dT_replay); restore + replay is always the true wall clock.
    replay_seconds: float = 0.0
    #: Checkpoint image bytes installed into the table.
    bytes_restored: int = 0
    #: Bytes read from the checkpoint files to produce them (headers, every
    #: record the restore verified, re-read spans); ``bytes_read /
    #: bytes_restored`` is the restore's read amplification.
    bytes_read: int = 0
    #: Action-log record bytes read and CRC-checked: the records replayed
    #: plus the newest one, which opening the log verifies.  The header
    #: walk, which verifies nothing, is not counted.
    log_bytes_read: int = 0

    @cached_property
    def rng(self) -> np.random.Generator:
        """The generator as the crashed server left it: the pre-crash stream
        continues from here.  A log record holds the state before its tick,
        so when no logged tick follows the restored cut the first read
        re-runs the whole log from the seed on a scratch table."""
        return self._rng()

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
    ) -> None:
        self._app = app
        self._directory = os.fspath(directory)
        self._seed = seed

    def recover(self) -> RecoveryReport:
        """Restore the checkpoint and replay the log; returns the live state."""
        geometry = self._app.geometry
        table = GameStateTable(geometry, dtype=self._app.dtype)
        tracer = get_tracer()
        with tracer.span("recover"):
            restore_started = time.perf_counter()
            with tracer.span("restore"):
                # The stores fill the table's own memory: no staging image.
                image = table.image_buffer()
                found, bytes_read = self._restore_checkpoint(geometry, image)
                used_fallback = found is None

                rng = np.random.default_rng(self._seed)
                if used_fallback:
                    # No durable checkpoint: tick -1 state comes from the seed.
                    self._app.initialize(table, rng)
                    epoch, cut_tick = 0, -1
                else:
                    epoch, cut_tick = found
            restore_seconds = time.perf_counter() - restore_started

            replay_started = time.perf_counter()
            with tracer.span("replay"):
                replayed, log_bytes_read = self._replay(
                    table, rng, start_tick=cut_tick + 1
                )
            replay_seconds = time.perf_counter() - replay_started
        report = RecoveryReport(
            table=table,
            _rng=(
                (lambda: self._rng_after(cut_tick))
                if replayed == 0 and not used_fallback else lambda: rng
            ),
            next_tick=cut_tick + 1 + replayed,
            checkpoint_tick=cut_tick,
            checkpoint_epoch=epoch,
            ticks_replayed=replayed,
            used_seed_fallback=used_fallback,
            restore_seconds=restore_seconds,
            replay_seconds=replay_seconds,
            bytes_restored=0 if used_fallback else image.nbytes,
            bytes_read=bytes_read,
            log_bytes_read=log_bytes_read,
        )
        self._publish(report)
        return report

    @staticmethod
    def _publish(report: RecoveryReport) -> None:
        """Publish the report's outcome to the process-global metrics row."""
        row = global_registry()
        row.counter("recoveries_completed").inc()
        row.counter("recovery_bytes_restored").inc(report.bytes_restored)
        row.counter("recovery_bytes_read").inc(report.bytes_read)
        row.counter("recovery_log_bytes_read").inc(report.log_bytes_read)
        row.counter("recovery_replay_ticks").inc(report.ticks_replayed)

    # ------------------------------------------------------------------
    # Restore
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

    def _rng_after(self, tick: int) -> np.random.Generator:
        """The generator after ``tick``, re-run over the log from the seed."""
        table = GameStateTable(self._app.geometry, dtype=self._app.dtype)
        rng = np.random.default_rng(self._seed)
        self._app.initialize(table, rng)
        if self._replay(table, rng, start_tick=0)[0] != tick + 1:
            raise RecoveryError(
                f"the logical log ends before tick {tick}; the generator "
                "state after it is lost"
            )
        return rng

    def _replay(
        self, table: GameStateTable, rng: np.random.Generator, start_tick: int
    ) -> Tuple[int, int]:
        """Re-run every logged tick from ``start_tick`` through the log's
        ``last_tick``; returns the count and the log bytes verified.

        A log that cannot reproduce every tick up to its newest intact one
        -- its first replayable record is newer than ``start_tick``, it skips
        a tick, or a record before the newest fails its CRC -- cannot
        reproduce the lost state; recovery fails loudly rather than replay
        around the hole or stop short of it.
        """
        expected = start_tick
        with ActionLog(self._directory) as log:
            for record in log.records(start_tick=start_tick):
                if record.tick != expected:
                    raise RecoveryError(
                        f"logical log skips from tick {expected} to "
                        f"{record.tick}; cannot replay"
                    )
                rng.bit_generator.state = record.rng_state
                plan = self._app.plan_tick_with_commands(
                    table, rng, record.tick, record.command_payload
                )
                # The updates were bounds-checked when first applied live;
                # replay trusts the log.
                table.apply_updates(
                    plan.rows, plan.columns, plan.values, validate=False
                )
                expected += 1
            if log.last_tick is not None and expected <= log.last_tick:
                raise RecoveryError(
                    f"logical log record for tick {expected} is corrupt but "
                    f"tick {log.last_tick} is intact; cannot replay"
                )
            return expected - start_tick, log.bytes_verified
