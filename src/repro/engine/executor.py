"""The real subroutine executor: actual memory copies and file writes.

:class:`RealExecutor` plugs into the shared
:class:`~repro.core.framework.CheckpointFramework` just like the simulator's
executor, but instead of charging model costs it hands each checkpoint, as
one :class:`~repro.engine.writer.CheckpointJob`, to a writer that lands it
through :func:`~repro.engine.writer.flush_checkpoint_job` in a real
:class:`~repro.storage.DoubleBackupStore` or
:class:`~repro.storage.CheckpointLogStore`.  How the cut is kept consistent
depends on when that writer reads the table, which its ``concurrent_reader``
attribute declares:

* A writer that captures the payloads inside ``submit`` --
  :class:`~repro.engine.writer.InlineWriter`, which flushes on the game
  thread at the cut -- reads the table before the next tick touches it,
  so the live table *is* the cut.  Its gather is the
  checkpoint's only copy: ``Copy-To-Memory`` and ``Handle-Update``'s saves
  are no-ops and there is no snapshot buffer.
* A :class:`~repro.engine.writer_pool.CheckpointWriterPool` handle
  (``writer_pool=``) reads the table beside the mutator, overlapping the I/O
  with later ticks as in the paper's Figure 1.  It gets the paper's
  snapshot, packed: ``Copy-To-Memory`` saves the eager write set and
  ``Handle-Update`` an object's old value on its first update after the
  cut into the next free row (from row 0 at each cut), and a slot map
  holds each object's row (-1: unsaved).  Its resident memory is the
  largest save set, not the image.  Once the handle is idle its job has
  landed, so nothing is saved until the next cut.

The concurrent case holds across threads through a
:class:`~repro.state.dirty.StripeLockSet`: ``Handle-Update`` saves an
object's old value and publishes its slot under the object's stripe
*before* the update lands, while the writer reads the slot and then the
payload under the same stripe.  If the writer observes the object unsaved,
the saving (and hence the update) of that object cannot complete until the
writer releases the stripe, so the live value it reads is still the cut
value; if it observes a slot, the saved row is used and any torn live read
is discarded.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.framework import SubroutineExecutor
from repro.core.plan import CheckpointPlan, UpdateEffects
from repro.engine.writer import CheckpointJob, InlineWriter, StoreType
from repro.engine.writer_pool import CheckpointWriterPool, PoolWriter
from repro.errors import EngineError
from repro.state.dirty import StripeLockSet
from repro.state.table import GameStateTable
from repro.storage.double_backup import DoubleBackupStore

#: Lock stripes over the object ids of a table read beside the mutator.
NUM_STRIPES = 64


class RealExecutor(SubroutineExecutor):
    """Executes the framework subroutines against real memory and files."""

    def __init__(
        self,
        table: GameStateTable,
        store: StoreType,
        writer_pool: Optional[CheckpointWriterPool] = None,
        writer: Optional[object] = None,
    ) -> None:
        geometry = table.geometry
        if store.geometry != geometry:
            raise EngineError(
                f"store geometry {store.geometry} does not match table "
                f"geometry {geometry}"
            )
        self._table = table
        self._store = store
        num_objects = geometry.num_objects
        self._all_ids = np.arange(num_objects, dtype=np.int64)
        writer = writer or (
            InlineWriter(store) if writer_pool is None
            else writer_pool.register(store)
        )
        self._writer = writer
        # A writer that declares ``concurrent_reader = False`` captures the
        # payloads inside ``submit``, at the cut, so it needs no snapshot,
        # no old-value saves and no stripe locks.  A pool worker reads the
        # table beside the mutator and gets all three; its snapshot has the
        # image's size, but no row past the saved ones is ever touched.
        self._concurrent = getattr(writer, "concurrent_reader", True)
        if self._concurrent:
            self._snapshot = np.empty(
                (num_objects, geometry.cells_per_object), dtype=table.dtype
            )
            self._slots = np.full(num_objects, -1, dtype=np.int64)
            self._locks = StripeLockSet(num_objects, NUM_STRIPES)
        else:
            self._snapshot = self._slots = self._locks = None
        self._saved = 0
        # In-flight write task.
        self._task_ids: Optional[np.ndarray] = None
        self._task_committed = False
        self._current_tick = -1
        self._task_cut_tick = -1
        # Accounting exposed to the server.
        self.sync_copy_seconds = 0.0
        self.handle_update_seconds = 0.0
        self._finished_bytes = 0

    @property
    def store(self) -> StoreType:
        """The stable-storage structure checkpoints are written to."""
        return self._store

    @property
    def writer(self) -> Union[PoolWriter, InlineWriter]:
        """The writer every checkpoint goes through (pool handle,
        pre-built writer or inline writer)."""
        return self._writer

    def writer_totals(self) -> Tuple[int, float]:
        """``(checkpoint bytes written, writer busy seconds)`` as a tick
        reports them.  The bytes are the count read when this executor last
        saw its job finish, so they advance only with
        ``checkpoints_completed`` and never count a job just handed off."""
        return self._finished_bytes, self._writer.totals()[1]

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
        if not self._concurrent:
            return 0.0
        started = time.perf_counter()
        # A new checkpoint's snapshot starts empty; stale old values belong
        # to the previous (already durable) checkpoint.
        self._slots.fill(-1)
        self._saved = 0
        if plan.eager_copy_ids.size:
            self._save(plan.eager_copy_ids)
        elapsed = time.perf_counter() - started
        self.sync_copy_seconds += elapsed
        return elapsed

    def begin_stable_write(self, plan: CheckpointPlan) -> None:
        if self._task_ids is not None and not self._task_committed:
            raise EngineError("previous checkpoint write still in flight")
        ids = self._all_ids if plan.write_ids is None else np.sort(plan.write_ids)
        self._task_ids = ids
        self._task_committed = False
        # The checkpoint represents the state at the tick ending now -- that
        # cut tick, not the later commit-time tick, is where replay resumes.
        self._task_cut_tick = self._current_tick
        backup_index = (
            plan.checkpoint_index % 2
            if isinstance(self._store, DoubleBackupStore)
            else None
        )
        self._writer.submit(
            CheckpointJob(
                object_ids=ids,
                epoch=plan.checkpoint_index + 1,
                cut_tick=self._task_cut_tick,
                source=self,
                backup_index=backup_index,
                is_full_dump=plan.is_full_dump,
            )
        )

    def stable_write_finished(self) -> bool:
        if self._task_ids is None or self._task_committed:
            return True
        self._writer.check()
        if not self._writer.idle:
            return False
        self._task_committed = True
        self._finished_bytes = self._writer.totals()[0]
        return True

    def handle_updates(self, effects: UpdateEffects) -> float:
        # An idle handle's job has landed: nothing reads a save until the
        # next cut, which starts the snapshot afresh.
        if not self._concurrent or self._writer.idle:
            return 0.0
        started = time.perf_counter()
        ids = effects.copy_ids
        if ids.size:
            # Save old values only for objects not already saved this
            # checkpoint -- each object is copied at most once per
            # checkpoint.  The slot map is written only on this (game)
            # thread, so the unlocked read is safe.
            fresh = ids[self._slots[ids] < 0]
            if fresh.size:
                self._save(fresh)
        elapsed = time.perf_counter() - started
        self.handle_update_seconds += elapsed
        return elapsed

    def _save(self, ids: np.ndarray) -> None:
        """Save the live payloads of ``ids`` (none saved yet this
        checkpoint) into the snapshot's next free rows, then publish their
        slots, under the objects' stripes."""
        start, self._saved = self._saved, self._saved + ids.size
        with self._locks.locked(ids):
            self._table.gather_objects_into(
                ids, self._snapshot[start: self._saved]
            )
            self._slots[ids] = np.arange(start, self._saved)

    # ------------------------------------------------------------------
    # The writer's payload source
    # ------------------------------------------------------------------

    def read_payloads_into(self, object_ids: np.ndarray, out: np.ndarray) -> None:
        """Cut-consistent payloads gathered straight into ``out`` (the
        :class:`~repro.engine.writer.PayloadSource` contract).  ``out`` has
        one row per object, of raw bytes or of table cells.

        A writer that captures at the cut is the game thread itself, before
        the next tick: the live table is the cut, and this gather is the
        checkpoint's only copy.  A concurrent writer gets the snapshot row
        where an object was saved and the live table otherwise, with the
        objects' stripes held across the slot read and the gather, so a
        concurrent ``Handle-Update`` of any of these objects either
        completed its old-value save before we looked (we read the
        snapshot) or is still waiting for the stripes (the live value is
        the cut value).
        """
        out = out.view(self._table.dtype)
        if not self._concurrent:
            self._table.gather_objects_into(object_ids, out)
            return
        with self._locks.locked(object_ids):
            self._table.gather_objects_into(object_ids, out)
            slots = self._slots[object_ids]
            saved = slots >= 0
            if saved.any():
                out[saved] = self._snapshot[slots[saved]]

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Retire the writer, abandoning an in-flight checkpoint at its next
        chunk boundary (crash semantics)."""
        self._writer.close(wait=False)
