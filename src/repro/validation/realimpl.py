"""A real, threaded implementation of Naive-Snapshot and Copy-on-Update.

This is the Python analogue of the paper's Section 6 C++ validation setup:

* a **mutator** executes each tick in three phases -- *query* (random lookups
  standing in for game logic), *update* (applying the trace's cell updates
  with dirty-bit maintenance and copy-on-update old-value saves), and *sleep*
  (filling the remainder so the game ticks at the configured rate);
* a :class:`~repro.engine.writer_pool.CheckpointWriterPool` worker -- the
  same writer the durable engine runs -- flushes consistent checkpoints to
  a real :class:`~repro.storage.DoubleBackupStore` on disk, reading shared
  state under striped locks for Copy-on-Update and reading the private
  snapshot buffer for Naive-Snapshot.  The server registers on the
  ``writer_pool`` it is given, so many validation servers (one per measured
  algorithm/rate point) share K workers exactly like a shard fleet does, or
  on a private one-worker pool it closes with itself.

Thread-safety protocol (the paper's Write-Objects-To-Stable-Storage "must be
thread-safe"): before the mutator writes any object's cells it saves the old
value into the snapshot buffer and sets the object's saved-mask bit *under
that object's stripe lock* (:class:`~repro.state.dirty.StripeLockSet`); the
writer reads the mask and then either the snapshot or the live cells under
the same lock, so it always observes the checkpoint-cut value.

Everything is measured with wall-clock timers: per-tick overhead (the time
the tick spent on checkpoint work), checkpoint durations (begin to commit),
and the restore time of an actual sequential read of the final image.
"""

from __future__ import annotations

import os
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.config import StateGeometry
from repro.engine.writer import CheckpointJob
from repro.engine.writer_pool import CheckpointWriterPool
from repro.errors import CheckpointWriterError, ValidationError
from repro.state.dirty import DoubleBackupBits, EpochSet, StripeLockSet
from repro.storage.double_backup import DoubleBackupStore
from repro.workloads.zipf import ZipfTrace

#: Default validation scale: 2M cells = 8 MB of state, 16,384 atomic objects.
#: Small enough for Python to tick at game rates, large enough that memory
#: copies and disk writes dominate the measured costs (see DESIGN.md).
VALIDATION_GEOMETRY = StateGeometry(rows=262_144, columns=8)


class _SnapshotSource:
    """Payload source reading the private snapshot buffer (Naive-Snapshot).

    The snapshot is written only while the writer is idle (the eager copy at
    checkpoint begin), so no locking is needed.
    """

    def __init__(self, server: "RealCheckpointServer") -> None:
        self._server = server

    def read_payloads(self, object_ids: np.ndarray) -> bytes:
        return self._server._snapshot[object_ids].tobytes()


class _ConsistentSource:
    """Payload source reading snapshot-or-live under stripes (Copy-on-Update)."""

    def __init__(self, server: "RealCheckpointServer") -> None:
        self._server = server

    def read_payloads(self, object_ids: np.ndarray) -> bytes:
        return self._server._read_consistent(object_ids)


@dataclass
class ValidationRunResult:
    """Measurements from one real run of one algorithm."""

    algorithm_key: str
    algorithm_name: str
    updates_per_tick: int
    ticks: int
    state_bytes: int
    tick_overhead: np.ndarray
    checkpoint_durations: List[float]
    restore_seconds: float

    @property
    def avg_overhead(self) -> float:
        """Mean measured per-tick overhead in seconds."""
        return float(self.tick_overhead.mean()) if self.tick_overhead.size else 0.0

    @property
    def max_overhead(self) -> float:
        """Largest measured single-tick overhead in seconds."""
        return float(self.tick_overhead.max()) if self.tick_overhead.size else 0.0

    @property
    def avg_checkpoint_time(self) -> float:
        """Mean measured checkpoint duration (begin to commit) in seconds."""
        if not self.checkpoint_durations:
            return 0.0
        return float(np.mean(self.checkpoint_durations))

    @property
    def recovery_time(self) -> float:
        """Measured restore plus one checkpoint period of replay."""
        return self.restore_seconds + self.avg_checkpoint_time

    def summary(self) -> dict:
        """Flat dictionary of the headline metrics."""
        return {
            "algorithm": self.algorithm_name,
            "updates_per_tick": self.updates_per_tick,
            "ticks": self.ticks,
            "avg_overhead_s": self.avg_overhead,
            "max_overhead_s": self.max_overhead,
            "avg_checkpoint_s": self.avg_checkpoint_time,
            "checkpoints_completed": len(self.checkpoint_durations),
            "restore_s": self.restore_seconds,
            "recovery_s": self.recovery_time,
        }


class RealCheckpointServer:
    """Mutator + asynchronous-writer implementation of NS and COU."""

    SUPPORTED = ("naive-snapshot", "copy-on-update")

    def __init__(
        self,
        algorithm: str,
        geometry: StateGeometry = VALIDATION_GEOMETRY,
        directory: Optional[str] = None,
        tick_period: float = 0.0,
        query_reads: int = 1_000,
        num_stripes: int = 64,
        seed: int = 0,
        verify_consistency: bool = False,
        writer_pool=None,
    ) -> None:
        if algorithm not in self.SUPPORTED:
            raise ValidationError(
                f"real implementation covers {self.SUPPORTED}, got {algorithm!r}"
            )
        self._algorithm = algorithm
        self._geometry = geometry
        self._tick_period = tick_period
        self._query_reads = query_reads
        self._seed = seed
        self._own_directory = directory is None
        self._directory = directory or tempfile.mkdtemp(prefix="repro-validate-")

        num_objects = geometry.num_objects
        cells_per_object = geometry.cells_per_object
        self._state = np.zeros(num_objects * cells_per_object, dtype=np.uint32)
        self._objects_view = self._state.reshape(num_objects, cells_per_object)
        self._snapshot = np.zeros_like(self._objects_view)
        self._saved_mask = np.zeros(num_objects, dtype=bool)
        self._bits = DoubleBackupBits(num_objects)
        self._touched = EpochSet(num_objects)
        self._write_mask = np.zeros(num_objects, dtype=bool)
        self._locks = StripeLockSet(num_objects, num_stripes)
        self._store = DoubleBackupStore(self._directory, geometry)
        self._own_pool = (
            CheckpointWriterPool(1, name="repro-writer")
            if writer_pool is None
            else None
        )
        self._writer = (self._own_pool or writer_pool).register(
            self._store, name=f"validate-{algorithm}"
        )
        self._snapshot_source = _SnapshotSource(self)
        self._consistent_source = _ConsistentSource(self)
        # Optional cut-consistency auditing: CRC of the whole state at each
        # checkpoint's cut, compared against the on-disk image afterwards.
        self._verify_consistency = verify_consistency
        self._cut_checksums: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Writer-thread payload reads
    # ------------------------------------------------------------------

    def _read_consistent(self, chunk: np.ndarray) -> bytes:
        """Read cut-consistent payloads for ``chunk`` under stripe locks."""
        with self._locks.locked(chunk):
            payload = self._objects_view[chunk].copy()
            saved = self._saved_mask[chunk]
            if saved.any():
                payload[saved] = self._snapshot[chunk[saved]]
        return payload.tobytes()

    # ------------------------------------------------------------------
    # Mutator
    # ------------------------------------------------------------------

    def run(self, updates_per_tick: int, num_ticks: int,
            skew: float = 0.8) -> ValidationRunResult:
        """Run the threaded server for ``num_ticks`` and return measurements."""
        geometry = self._geometry
        rng = np.random.default_rng(self._seed)
        self._state[: geometry.num_cells] = rng.integers(
            0, 2**32, size=geometry.num_cells, dtype=np.uint32
        )
        trace = ZipfTrace(
            geometry,
            updates_per_tick=updates_per_tick,
            skew=skew,
            num_ticks=num_ticks,
            seed=self._seed,
        )

        overheads = np.zeros(num_ticks)
        checkpoint_count = 0
        value_source = rng.integers(0, 2**32, size=1 << 16, dtype=np.uint32)
        try:
            for tick, cells in enumerate(trace.ticks()):
                tick_started = time.perf_counter()
                self._check_writer()

                # --- Query phase: random lookups stand in for game logic.
                if self._query_reads:
                    lookup = rng.integers(
                        0, geometry.num_cells, size=self._query_reads
                    )
                    float(self._state[lookup].sum())  # force the reads

                # --- Update phase.
                overheads[tick] = self._apply_updates(cells, value_source)

                # --- Tick boundary: start a checkpoint when the writer is idle.
                if self._writer.idle:
                    overheads[tick] += self._begin_checkpoint(
                        checkpoint_count, cut_tick=tick
                    )
                    checkpoint_count += 1

                # --- Sleep phase: fill the tick to the configured rate.
                if self._tick_period > 0.0:
                    remaining = self._tick_period - (
                        time.perf_counter() - tick_started
                    )
                    if remaining > 0:
                        time.sleep(remaining)
        except CheckpointWriterError as error:
            # submit() re-raises a writer-thread failure directly; present
            # it under this harness's error type like every other path.
            raise ValidationError(str(error)) from error
        finally:
            # A writer that cannot drain its last checkpoint within the
            # timeout is a wedged thread, and must raise -- never be shrugged
            # off with a timed-out join.
            if not self._writer.wait_idle(timeout=30.0, check=False):
                error = self._writer.error
                message = (
                    "asynchronous writer did not finish within 30.0s"
                )
                if error is not None:
                    message += f" (pending writer error: {error!r})"
                raise ValidationError(message) from error
        self._check_writer()

        restore_seconds = self._measure_restore()
        return ValidationRunResult(
            algorithm_key=self._algorithm,
            algorithm_name=(
                "Naive-Snapshot"
                if self._algorithm == "naive-snapshot"
                else "Copy-on-Update"
            ),
            updates_per_tick=updates_per_tick,
            ticks=num_ticks,
            state_bytes=geometry.state_bytes,
            tick_overhead=overheads,
            checkpoint_durations=self._writer.stats().durations,
            restore_seconds=restore_seconds,
        )

    def _check_writer(self) -> None:
        try:
            self._writer.check()
        except CheckpointWriterError as error:
            raise ValidationError(str(error)) from error

    def _apply_updates(self, cells: np.ndarray, value_source: np.ndarray) -> float:
        """Update phase; returns the measured checkpoint-related overhead."""
        overhead = 0.0
        if self._algorithm == "copy-on-update":
            started = time.perf_counter()
            objects = self._geometry.object_of_cell(cells)
            self._bits.mark_updated(objects)
            fresh = self._touched.add_new(objects)
            copy_ids = fresh[self._write_mask[fresh]]
            if copy_ids.size and not self._writer.idle:
                self._save_old_values(copy_ids)
            overhead = time.perf_counter() - started
        # Apply the updates (game work, not checkpoint overhead).
        values = value_source[cells % value_source.size]
        self._state[cells] = values
        return overhead

    def _save_old_values(self, copy_ids: np.ndarray) -> None:
        with self._locks.locked(copy_ids):
            unsaved = copy_ids[~self._saved_mask[copy_ids]]
            if unsaved.size:
                self._snapshot[unsaved] = self._objects_view[unsaved]
                self._saved_mask[unsaved] = True

    def _begin_checkpoint(self, index: int, cut_tick: int) -> float:
        """Start checkpoint ``index``; returns the synchronous pause."""
        if self._verify_consistency:
            # The writer is idle here (checked by the caller), so an
            # unsynchronized full read *is* the cut state.
            self._cut_checksums[index + 1] = zlib.crc32(self._state.tobytes())
        started = time.perf_counter()
        backup_index = index % 2
        if self._algorithm == "naive-snapshot":
            np.copyto(self._snapshot, self._objects_view)  # the eager copy
            write_ids = np.arange(self._geometry.num_objects, dtype=np.int64)
            from_snapshot_only = True
        else:
            write_ids = self._bits.begin_checkpoint()
            self._bits.finish_checkpoint()  # alternate for the next round
            self._write_mask.fill(False)
            self._write_mask[write_ids] = True
            self._saved_mask.fill(False)
            self._touched.reset()
            from_snapshot_only = False
        pause = time.perf_counter() - started
        self._writer.submit(
            CheckpointJob(
                object_ids=write_ids,
                epoch=index + 1,
                cut_tick=cut_tick,
                source=(
                    self._snapshot_source
                    if from_snapshot_only
                    else self._consistent_source
                ),
                backup_index=backup_index,
            )
        )
        return pause

    # ------------------------------------------------------------------
    # Recovery measurement
    # ------------------------------------------------------------------

    def _measure_restore(self) -> float:
        """Time an actual sequential read of the newest consistent image."""
        try:
            found = self._store.latest_consistent()
        except Exception:
            return 0.0
        started = time.perf_counter()
        image = self._store.read_image(found.backup_index)
        elapsed = time.perf_counter() - started
        if len(image) != self._geometry.checkpoint_bytes:
            raise ValidationError("restore read returned a truncated image")
        return elapsed

    def verify_last_checkpoint(self) -> bool:
        """Audit cut-consistency of the newest durable checkpoint.

        Requires ``verify_consistency=True`` at construction.  Reads the
        latest committed image and compares its CRC against the CRC of the
        in-memory state captured at that checkpoint's cut -- the writer must
        have produced exactly the cut state despite racing the mutator.
        """
        if not self._verify_consistency:
            raise ValidationError(
                "construct the server with verify_consistency=True"
            )
        self._writer.wait_idle(timeout=30.0, check=False)
        found = self._store.latest_consistent()
        expected = self._cut_checksums.get(found.epoch)
        if expected is None:
            raise ValidationError(
                f"no cut checksum recorded for epoch {found.epoch}"
            )
        image = self._store.read_image(found.backup_index)
        # The image covers whole padded objects; our state array is exactly
        # object-aligned at this geometry, so bytes compare directly.
        return zlib.crc32(image) == expected

    def close(self) -> None:
        """Stop the writer, close the store, and remove temp files."""
        try:
            self._writer.close(timeout=30.0, wait=False)
            if self._own_pool is not None:
                self._own_pool.close(timeout=30.0, wait=False)
        except CheckpointWriterError as error:
            raise ValidationError(str(error)) from error
        finally:
            self._store.close()
        if self._own_directory:
            for name in DoubleBackupStore.FILE_NAMES:
                path = os.path.join(self._directory, name)
                if os.path.exists(path):
                    os.unlink(path)
            try:
                os.rmdir(self._directory)
            except OSError:
                pass

    def __enter__(self) -> "RealCheckpointServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
