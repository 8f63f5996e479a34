"""The checkpoint job and the one routine that flushes it off the game thread.

The paper's architecture overlaps the game loop with checkpoint I/O: "we
write the state to stable storage asynchronously" (Section 3.2), with the
one thread-safety requirement that ``Write-Objects-To-Stable-Storage``
observes checkpoint-cut values while the mutator keeps updating (Section 4.1).
This module holds the pieces of that subroutine every caller shares:

* the mutator hands over one :class:`CheckpointJob` per checkpoint -- the
  sorted write set plus a :class:`PayloadSource` that stages cut-consistent
  payloads (for a pool writer, the snapshot for saved objects and the live
  table otherwise, under striped per-object locks; for a writer that reads
  at the cut, the live table alone);
* :func:`flush_checkpoint_job` stages the job into the writer's slab
  :data:`CHUNK_OBJECTS` at a time and lands it through the store as one
  list of disk runs
  (:class:`~repro.storage.double_backup.DoubleBackupStore` one ``pwritev``
  per run, :class:`~repro.storage.checkpoint_log.CheckpointLogStore` one
  gathered append) with the commit riding on the final write;
* :class:`InlineWriter` runs it on the game thread, for a server with no
  pool: each checkpoint is durable at its cut;
* :class:`WriterStats` is the per-writer counter block a scrape reads.

The threads that run the routine live in
:mod:`repro.engine.writer_pool`: a :class:`~repro.engine.writer_pool.CheckpointWriterPool`
worker is the only asynchronous checkpoint writer, for the engine
(:class:`~repro.engine.executor.RealExecutor`, all six algorithms) and the
Section 6 validation harness (:mod:`repro.validation.harness`, which drives
the engine) alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple, Union

import numpy as np

from repro.errors import CheckpointWriterError
from repro.obs.trace import get_tracer
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore

StoreType = Union[DoubleBackupStore, CheckpointLogStore]

#: Objects read per gather round.  Small enough that the stripe locks are
#: held only briefly, large enough that the store sees batched I/O (256 KiB
#: at the paper's 512-byte objects).
CHUNK_OBJECTS = 512

#: Largest slab :func:`flush_checkpoint_job` asks for; a bigger job, such
#: as a full dump, reaches the disk a slab at a time, so a handle's slab
#: stays this small however big the image.
MAX_GATHER_BYTES = 4 << 20

#: Newest per-checkpoint durations a :class:`WriterStats` retains; long-lived
#: fleets keep a sliding window instead of an ever-growing list.
DURATION_WINDOW = 4096


def flush_checkpoint_job(
    store: StoreType,
    job: CheckpointJob,
    should_abandon,
    on_chunk_written,
    slab_for=None,
) -> bool:
    """Stage one :class:`CheckpointJob` into a slab and land it as one
    list of disk runs.

    ``slab_for(rows)`` returns the slab: a 2-D uint8 array, one row per
    object and at least ``rows`` rows long, that the writer owns (without
    it the call allocates one for itself).  The job is staged into it in
    id order :data:`CHUNK_OBJECTS` at a time through
    ``job.source.read_payloads_into`` -- so stripe locks are held only
    briefly and ``should_abandon()`` is polled at every chunk boundary --
    and nothing beyond the begin marker touches the disk until the slab is
    full.  The store's ``write_checkpoint_vectored`` then lands it: one
    ``pwritev`` per disk run for the double backup, one gathered ``writev``
    of every record plus the commit marker for the log, and at most one
    data fsync either way.

    A job bigger than the slab (:data:`MAX_GATHER_BYTES` caps it) lands a
    slab at a time, uncommitted, and the last slab carries the commit.

    An abandon request aborts the checkpoint (crash semantics -- the store
    keeps an uncommitted checkpoint) and the function returns False; a
    store fault propagates.  ``on_chunk_written(nbytes)`` is called as each
    slab lands, for cross-thread accounting.  Every flush, whichever writer
    runs it, is one ``ckpt_flush`` span.
    """
    with get_tracer().span("ckpt_flush", epoch=job.epoch, cut=job.cut_tick):
        if isinstance(store, DoubleBackupStore):
            store.begin_checkpoint(job.backup_index, job.epoch)
        else:
            store.begin_checkpoint(job.epoch, job.is_full_dump)
        ids = job.object_ids
        object_bytes = store.geometry.object_bytes
        chunk_bytes = CHUNK_OBJECTS * object_bytes
        cap = -(-MAX_GATHER_BYTES // chunk_bytes) * CHUNK_OBJECTS
        rows_needed = min(ids.size, cap)
        slab = (
            np.empty((rows_needed, object_bytes), dtype=np.uint8)
            if slab_for is None else slab_for(rows_needed)
        )
        base = 0
        while True:
            window = ids[base: base + len(slab)]
            rows = slab[: window.size]
            for start in range(0, window.size, CHUNK_OBJECTS):
                if should_abandon():
                    store.abort_checkpoint()
                    return False
                stop = start + CHUNK_OBJECTS
                job.source.read_payloads_into(
                    window[start:stop], rows[start:stop]
                )
            if should_abandon():
                store.abort_checkpoint()
                return False
            base += window.size
            last = base >= ids.size
            on_chunk_written(store.write_checkpoint_vectored(
                window, rows, job.cut_tick if last else None
            ))
            if last:
                return True


class PayloadSource(Protocol):
    """Stages cut-consistent payloads for a batch of objects.

    For a writer that reads beside the mutator, implementations must be
    safe to call from the writer thread while the mutator keeps updating:
    they take the stripe locks covering the batch, read the snapshot buffer
    for objects whose old value was saved, and the live table for the rest
    (whose live value *is* the cut value).
    """

    def read_payloads_into(self, object_ids: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out`` (one uint8 row per object) with their payloads."""
        ...


@dataclass(frozen=True)
class CheckpointJob:
    """One checkpoint's worth of asynchronous write work."""

    #: Sorted ids of the objects to write.
    object_ids: np.ndarray
    #: Checkpoint epoch (1-based, as the stores expect).
    epoch: int
    #: Tick the checkpoint's cut happened at (recorded on commit).
    cut_tick: int
    #: Where cut-consistent payloads come from.
    source: PayloadSource
    #: Target backup file (double-backup stores only).
    backup_index: Optional[int] = None
    #: Whether this checkpoint writes the whole state as a full dump, which
    #: a log store writes into a new log (log stores only).
    is_full_dump: bool = False


@dataclass
class WriterStats:
    """Cross-thread snapshot of the writer's lifetime counters."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_abandoned: int = 0
    bytes_written: int = 0
    #: Wall-clock seconds the thread spent inside jobs (begin to commit).
    busy_seconds: float = 0.0
    #: Per-checkpoint durations, in completion order (newest
    #: :data:`DURATION_WINDOW` entries -- a sliding window, not a leak).
    durations: List[float] = field(default_factory=list)
    #: ``(epoch, cut_tick)`` of the newest committed checkpoint.
    last_committed: Optional[Tuple[int, int]] = None
    # Copy-on-write bookkeeping: True while ``durations`` is shared with a
    # snapshot, so the next record copies before mutating and the scrape
    # itself is O(1) instead of O(samples).
    _durations_shared: bool = field(default=False, repr=False, compare=False)

    def record_duration(self, elapsed: float) -> None:
        """Append one checkpoint duration, keeping the window bounded."""
        if self._durations_shared:
            self.durations = list(self.durations)
            self._durations_shared = False
        self.durations.append(elapsed)
        if len(self.durations) > DURATION_WINDOW:
            del self.durations[: len(self.durations) - DURATION_WINDOW]

    def snapshot(self) -> "WriterStats":
        """Detached copy for scrapers, O(1) however many samples.

        The durations list is published *by reference* and both sides flip
        to copy-on-write: the next :meth:`record_duration` copies before
        appending, so the snapshot never mutates under its holder and the
        scrape never pays an O(window) copy.
        """
        snap = WriterStats(
            jobs_submitted=self.jobs_submitted,
            jobs_completed=self.jobs_completed,
            jobs_abandoned=self.jobs_abandoned,
            bytes_written=self.bytes_written,
            busy_seconds=self.busy_seconds,
            durations=self.durations,
            last_committed=self.last_committed,
        )
        snap._durations_shared = True
        self._durations_shared = True
        return snap


class InlineWriter:
    """The writer of a server without a pool: :meth:`submit` runs
    :func:`flush_checkpoint_job` on the game thread, so a checkpoint is
    durable at its cut and the writer is idle whenever it is asked.

    Duck-types the mutator surface of
    :class:`~repro.engine.writer_pool.PoolWriter` (``submit`` / ``check`` /
    ``idle`` / ``wait_idle`` / ``totals`` / ``last_committed`` /
    ``close``).  Nothing reads the table beside the mutator, so it declares
    ``concurrent_reader = False``: the executor keeps no snapshot and takes
    no stripe locks, and the flush's gather from the live table is the
    checkpoint's only copy.
    A failed flush is sticky, as on a pool handle: the store keeps the
    uncommitted checkpoint, ``submit`` raises, and so does every later
    ``check`` until the server is recovered.
    """

    #: No concurrent reads of the table: the flush runs inside submit.
    concurrent_reader = False
    #: Every submit returns with its flush finished.
    idle = True

    def __init__(self, store: StoreType) -> None:
        self._store = store
        self._error: Optional[Exception] = None
        self._bytes_written = 0
        #: ``(epoch, cut_tick)`` of the newest committed checkpoint.
        self.last_committed: Optional[Tuple[int, int]] = None

    def check(self) -> None:
        """Re-raise the failure of an earlier flush."""
        if self._error is not None:
            raise CheckpointWriterError(
                f"checkpoint flush failed: {self._error!r}"
            ) from self._error

    def submit(self, job: CheckpointJob) -> None:
        """Flush ``job`` to commit; a store fault is raised as
        :class:`~repro.errors.CheckpointWriterError` and kept."""
        self.check()
        try:
            flush_checkpoint_job(
                self._store, job,
                should_abandon=lambda: False,
                on_chunk_written=lambda nbytes: None,
            )
        except Exception as error:
            self._error = error
            self.check()
        self._bytes_written += (
            job.object_ids.size * self._store.geometry.object_bytes
        )
        self.last_committed = (job.epoch, job.cut_tick)

    def wait_idle(
        self, timeout: Optional[float] = None, check: bool = True
    ) -> bool:
        """Always idle; re-raises a kept failure unless ``check`` is off."""
        if check:
            self.check()
        return True

    def totals(self) -> Tuple[int, float]:
        """``(bytes_written, busy_seconds)``; the flushes are the game
        thread's own time, so there are no writer busy seconds."""
        return self._bytes_written, 0.0

    def close(self, timeout: float = 30.0, wait: bool = True) -> None:
        """Nothing is in flight; an orderly close re-raises a kept failure."""
        if wait:
            self.check()
