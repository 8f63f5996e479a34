"""The real subroutine executor: actual memory copies and file writes.

:class:`RealExecutor` plugs into the shared
:class:`~repro.core.framework.CheckpointFramework` just like the simulator's
executor, but instead of charging model costs it

* copies live object payloads into a snapshot buffer (``Copy-To-Memory`` and
  the old-value saves of ``Handle-Update``), and
* writes checkpoints to a real :class:`~repro.storage.DoubleBackupStore` or
  :class:`~repro.storage.CheckpointLogStore` -- either by draining a bounded
  number of bytes per tick on the game thread (the deterministic serial
  emulation), or -- with ``writer_pool`` set -- by submitting each
  checkpoint through a
  :class:`~repro.engine.writer_pool.CheckpointWriterPool` handle, whose
  worker overlaps the I/O with subsequent ticks as in the paper's Figure 1
  architecture (a whole fleet of executors is served by ``O(pool_size)``
  writer threads), or through a pre-built ``writer`` (the process backend's
  checkpoint proxy).

The consistency argument mirrors the paper's: every object in the write set
is emitted either from the snapshot buffer (if it was updated after the cut;
its pre-update value was saved on first touch) or from the live table (if it
has not been updated since the cut, in which case the live value *is* the cut
value).

In asynchronous mode the same argument must hold across threads, and does so
through a :class:`~repro.state.dirty.StripeLockSet`: ``Handle-Update`` saves
an object's old value and sets its snapshot bit under the object's stripe
*before* the update lands, while the writer reads the snapshot bit and then
snapshot-or-live payload under the same stripe.  If the writer observes the
bit unset, the saving (and hence the update) of that object cannot complete
until the writer releases the stripe, so the live value it reads is still the
cut value; if it observes the bit set, the saved snapshot row is used and any
torn live read is discarded.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.framework import SubroutineExecutor
from repro.core.plan import CheckpointPlan, UpdateEffects
from repro.engine.writer import CheckpointJob
from repro.engine.writer_pool import CheckpointWriterPool, PoolWriter
from repro.errors import EngineError
from repro.state.dirty import StripeLockSet
from repro.state.table import GameStateTable
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore

StoreType = Union[DoubleBackupStore, CheckpointLogStore]


class RealExecutor(SubroutineExecutor):
    """Executes the framework subroutines against real memory and files."""

    def __init__(
        self,
        table: GameStateTable,
        store: StoreType,
        writer_bytes_per_tick: Optional[int] = None,
        num_stripes: int = 64,
        writer_pool: Optional[CheckpointWriterPool] = None,
        writer_name: Optional[str] = None,
        writer: Optional[object] = None,
    ) -> None:
        geometry = table.geometry
        if store.geometry != geometry:
            raise EngineError(
                f"store geometry {store.geometry} does not match table "
                f"geometry {geometry}"
            )
        if writer_bytes_per_tick is not None and writer_bytes_per_tick <= 0:
            raise EngineError(
                f"writer_bytes_per_tick must be positive, got "
                f"{writer_bytes_per_tick}"
            )
        self._table = table
        self._store = store
        self._geometry = geometry
        self._writer_bytes_per_tick = writer_bytes_per_tick
        num_objects = geometry.num_objects
        self._snapshot = np.zeros(
            (num_objects, geometry.cells_per_object), dtype=table.dtype
        )
        self._snapshot_mask = np.zeros(num_objects, dtype=bool)
        self._all_ids = np.arange(num_objects, dtype=np.int64)
        if writer is not None:
            # Pre-built writer-like object (submit/check/idle/totals/close/
            # last_committed), e.g. the process-backend worker's
            # checkpoint proxy.  A writer that declares
            # ``concurrent_reader = False`` never reads the table from
            # another thread -- it captures the payloads synchronously
            # inside ``submit`` -- so the stripe-lock protocol (and its
            # per-update cost) is skipped entirely.
            self._writer = writer
            self._locks = (
                StripeLockSet(num_objects, num_stripes)
                if getattr(writer, "concurrent_reader", True)
                else None
            )
        elif writer_pool is not None:
            # Pool mode: register the store and submit through the handle;
            # the flush runs on one of the pool's workers under the
            # stripe-lock cut-consistency protocol.
            self._locks: Optional[StripeLockSet] = StripeLockSet(
                num_objects, num_stripes
            )
            self._writer: Optional[PoolWriter] = writer_pool.register(
                store, name=writer_name
            )
        else:
            self._locks = None
            self._writer = None
        # In-flight write task.
        self._task_ids: Optional[np.ndarray] = None
        self._task_position = 0
        self._task_committed = False
        self._current_tick = -1
        self._task_cut_tick = -1
        # Accounting exposed to the server.
        self.sync_copy_seconds = 0.0
        self.handle_update_seconds = 0.0
        self._serial_bytes_written = 0
        self._finished_bytes = 0
        self._last_committed_tick: Optional[int] = None

    @property
    def store(self) -> StoreType:
        """The stable-storage structure checkpoints are written to."""
        return self._store

    @property
    def writer(self) -> Optional[PoolWriter]:
        """The pool handle (or pre-built writer), or None in serial mode."""
        return self._writer

    def writer_totals(self) -> Tuple[int, float]:
        """``(checkpoint bytes written, writer busy seconds)`` as a tick
        reports them.  A writer's bytes are the count read when this
        executor last saw its job finish, so they advance only with
        ``checkpoints_completed`` and never count a job just handed off;
        serial drains count as the tick writes them."""
        if self._writer is None:
            return self._serial_bytes_written, 0.0
        return self._finished_bytes, self._writer.totals()[1]

    @property
    def bytes_written(self) -> int:
        """Checkpoint bytes written so far, read live from the writer."""
        if self._writer is None:
            return self._serial_bytes_written
        return self._writer.totals()[0]

    @property
    def last_committed_tick(self) -> Optional[int]:
        """Cut tick of the newest committed checkpoint, tracked in memory.

        In asynchronous mode the store headers belong to the writer thread,
        so this tracked value is the only race-free way for the game thread
        to learn the newest durable cut.
        """
        if self._writer is not None:
            committed = self._writer.last_committed
            return None if committed is None else committed[1]
        return self._last_committed_tick

    @property
    def last_cut_tick(self) -> Optional[int]:
        """Cut tick of the newest checkpoint handed to the write path,
        durable or not; None before the first."""
        return None if self._task_ids is None else self._task_cut_tick

    def set_current_tick(self, tick: int) -> None:
        """Tell the executor which tick is ending (the checkpoint cut)."""
        self._current_tick = tick

    # ------------------------------------------------------------------
    # SubroutineExecutor interface
    # ------------------------------------------------------------------

    def copy_to_memory(self, plan: CheckpointPlan) -> float:
        started = time.perf_counter()
        # A new checkpoint's snapshot starts empty; stale old values belong
        # to the previous (already durable) checkpoint.
        self._snapshot_mask.fill(False)
        ids = plan.eager_copy_ids
        if ids.size:
            self._snapshot[ids] = self._table.read_objects(ids)
            self._snapshot_mask[ids] = True
        elapsed = time.perf_counter() - started
        self.sync_copy_seconds += elapsed
        return elapsed

    def begin_stable_write(self, plan: CheckpointPlan) -> None:
        if self._task_ids is not None and not self._task_committed:
            raise EngineError("previous checkpoint write still in flight")
        epoch = plan.checkpoint_index + 1
        if plan.write_ids is None:
            ids = self._all_ids
        else:
            ids = np.sort(plan.write_ids)
        self._task_ids = ids
        self._task_position = 0
        self._task_committed = False
        # The checkpoint represents the state at the tick ending now -- that
        # cut tick, not the later commit-time tick, is where replay resumes.
        self._task_cut_tick = self._current_tick
        if self._writer is not None:
            backup_index = (
                plan.checkpoint_index % 2
                if isinstance(self._store, DoubleBackupStore)
                else None
            )
            self._writer.submit(
                CheckpointJob(
                    object_ids=ids,
                    epoch=epoch,
                    cut_tick=self._task_cut_tick,
                    source=self,
                    backup_index=backup_index,
                    is_full_dump=plan.is_full_dump,
                )
            )
            return
        if isinstance(self._store, DoubleBackupStore):
            backup_index = plan.checkpoint_index % 2
            self._store.begin_checkpoint(backup_index, epoch)
        else:
            self._store.begin_checkpoint(epoch, plan.is_full_dump)
        if ids.size == 0:
            self._commit()

    def stable_write_finished(self) -> bool:
        if self._task_ids is None or self._task_committed:
            return True
        if self._writer is not None:
            self._writer.check()
            if self._writer.idle:
                self._task_committed = True
                self._finished_bytes = self._writer.totals()[0]
                return True
            return False
        return False

    def handle_updates(self, effects: UpdateEffects) -> float:
        started = time.perf_counter()
        ids = effects.copy_ids
        if ids.size:
            # Save old values only for objects not already snapshotted this
            # checkpoint -- each object is copied at most once per checkpoint.
            # The mask is mutated only on this (game) thread, so the unlocked
            # read is safe; the save itself happens under the objects' stripes
            # whenever the writer thread may be reading them concurrently.
            fresh = ids[~self._snapshot_mask[ids]]
            if fresh.size:
                if (
                    self._locks is not None
                    and self._writer is not None
                    and not self._writer.idle
                ):
                    with self._locks.locked(fresh):
                        self._snapshot[fresh] = self._table.read_objects(fresh)
                        self._snapshot_mask[fresh] = True
                else:
                    self._snapshot[fresh] = self._table.read_objects(fresh)
                    self._snapshot_mask[fresh] = True
        elapsed = time.perf_counter() - started
        self.handle_update_seconds += elapsed
        return elapsed

    # ------------------------------------------------------------------
    # The emulated asynchronous writer
    # ------------------------------------------------------------------

    def drain(self, budget_bytes: Optional[int] = None) -> int:
        """Advance the in-flight checkpoint write by up to ``budget_bytes``.

        Returns the number of bytes written.  With ``budget_bytes`` omitted
        the executor's per-tick default applies (unbounded if that is None).
        The server calls this once per tick, standing in for the paper's
        asynchronous writer thread.

        In asynchronous mode the writer thread makes its own progress; the
        call only surfaces any pending writer failure onto the game thread.
        """
        if self._writer is not None:
            self._writer.check()
            return 0
        if self._task_ids is None or self._task_committed:
            return 0
        if budget_bytes is None:
            budget_bytes = self._writer_bytes_per_tick
        object_bytes = self._geometry.object_bytes
        remaining = self._task_ids.size - self._task_position
        if budget_bytes is None:
            count = remaining
        else:
            count = min(remaining, max(1, budget_bytes // object_bytes))
        chunk = self._task_ids[self._task_position: self._task_position + count]
        payloads = np.empty((count, object_bytes), dtype=np.uint8)
        self.read_payloads_into(chunk, payloads)
        if isinstance(self._store, DoubleBackupStore):
            self._store.write_objects(chunk, payloads)
        else:
            self._store.append_objects(chunk, payloads)
        self._task_position += count
        written = count * object_bytes
        self._serial_bytes_written += written
        if self._task_position >= self._task_ids.size:
            self._commit()
        return written

    def read_payloads_into(self, object_ids: np.ndarray, out: np.ndarray) -> None:
        """Cut-consistent payloads gathered straight into ``out`` (the
        :class:`~repro.engine.writer.PayloadSource` contract): snapshot where
        saved, live table otherwise.  ``out`` has one row per object, of
        raw bytes or of table cells.

        With a concurrent writer this holds the objects' stripes across the
        mask read and the gather, so a concurrent ``Handle-Update`` of any
        of these objects either completed its old-value save before we
        looked (we read the snapshot) or is still waiting for the stripes
        (the live value is the cut value).  Without one (serial drain, or
        the process backend staging at the cut) the caller is the game
        thread itself and no stripes exist.
        """
        out = out.view(self._table.dtype)
        with (
            nullcontext() if self._locks is None
            else self._locks.locked(object_ids)
        ):
            self._table.gather_objects_into(object_ids, out)
            saved = self._snapshot_mask[object_ids]
            if saved.any():
                out[saved] = self._snapshot[object_ids[saved]]

    def _commit(self) -> None:
        self._store.commit_checkpoint(self._task_cut_tick)
        self._task_committed = True
        self._last_committed_tick = self._task_cut_tick

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Retire the writer handle (no-op in serial mode).

        ``wait=True`` lets an in-flight checkpoint commit first; ``wait=False``
        abandons it at the next chunk boundary (crash semantics).
        """
        if self._writer is not None:
            self._writer.close(timeout=timeout, wait=wait)
