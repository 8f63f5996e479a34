"""The asynchronous checkpoint writer thread shared by engine and validation.

The paper's architecture overlaps the game loop with checkpoint I/O: "we
write the state to stable storage asynchronously" (Section 3.2), with the
one thread-safety requirement that ``Write-Objects-To-Stable-Storage``
observes checkpoint-cut values while the mutator keeps updating (Section 4.1).
:class:`AsyncCheckpointWriter` is that writer thread, made a first-class
subsystem:

* the mutator thread hands over one :class:`CheckpointJob` per checkpoint --
  the sorted write set plus a :class:`PayloadSource` that produces
  cut-consistent payloads (reading the double-buffered snapshot for saved
  objects and the live table otherwise, under striped per-object locks);
* the writer drains the job in bounded chunks through the existing stores
  (:class:`~repro.storage.double_backup.DoubleBackupStore` in-place sorted
  runs, :class:`~repro.storage.checkpoint_log.CheckpointLogStore` sequential
  appends), commits the checkpoint, and records its duration;
* errors never vanish into the thread: they are re-raised on the mutator's
  next :meth:`check`/:meth:`submit`/:meth:`close`, and a close that times
  out while the thread is still alive raises instead of silently dropping a
  stuck writer.

Both :class:`~repro.engine.executor.RealExecutor` (all six algorithms) and
:class:`~repro.validation.realimpl.RealCheckpointServer` (the Section 6
measurement harness) run their checkpoints through this one class, so the
engine and the Figure 6 validation exercise identical I/O code.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple, Union

import numpy as np

from repro.errors import CheckpointWriterError
from repro.obs.metrics import (
    DURATION_BUCKETS_US,
    Histogram,
    HistogramSnapshot,
)
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore

StoreType = Union[DoubleBackupStore, CheckpointLogStore]

_SENTINEL = None

#: Default number of objects read and written per writer round.  Small enough
#: that the stripe locks are held only briefly, large enough that the store
#: sees batched I/O (256 KiB at the paper's 512-byte objects).
DEFAULT_CHUNK_OBJECTS = 512

#: Largest checkpoint the coalesced flush path will stage in memory before
#: landing it as one gathered write; bigger jobs fall back to the chunked
#: path rather than ballooning the writer's footprint.
DEFAULT_MAX_GATHER_BYTES = 64 << 20

#: Newest per-checkpoint durations a :class:`WriterStats` retains; long-lived
#: fleets keep a sliding window instead of an ever-growing list.
DURATION_WINDOW = 4096


def flush_checkpoint_job(
    store: StoreType,
    job: CheckpointJob,
    chunk_objects: int,
    should_abandon=None,
    on_chunk_written=None,
) -> bool:
    """Flush one :class:`CheckpointJob` through a store, chunk by chunk.

    The single flush routine shared by :class:`AsyncCheckpointWriter` and
    :class:`~repro.engine.writer_pool.CheckpointWriterPool`: begin, write the
    job's object ids in ``chunk_objects`` batches (reading cut-consistent
    payloads from the job's source), commit.  ``should_abandon`` is polled at
    every chunk boundary; returning True aborts the checkpoint (crash
    semantics -- the store keeps an uncommitted checkpoint) and the function
    returns False.  ``on_chunk_written`` receives the byte count of each
    chunk as it lands, for cross-thread accounting.
    """
    double_backup = isinstance(store, DoubleBackupStore)
    if double_backup:
        store.begin_checkpoint(job.backup_index, job.epoch)
    else:
        store.begin_checkpoint(job.epoch, job.is_full_dump)
    object_bytes = store.geometry.object_bytes
    ids = job.object_ids
    for start in range(0, ids.size, chunk_objects):
        if should_abandon is not None and should_abandon():
            store.abort_checkpoint()
            return False
        chunk = ids[start: start + chunk_objects]
        payloads = job.source.read_payloads(chunk)
        if double_backup:
            store.write_objects(chunk, payloads)
        else:
            store.append_objects(chunk, payloads)
        if on_chunk_written is not None:
            on_chunk_written(chunk.size * object_bytes)
    if should_abandon is not None and should_abandon():
        store.abort_checkpoint()
        return False
    store.commit_checkpoint(job.cut_tick)
    return True


def flush_checkpoint_job_vectored(
    store: StoreType,
    job: CheckpointJob,
    chunk_objects: int,
    should_abandon=None,
    on_chunk_written=None,
) -> bool:
    """Flush one :class:`CheckpointJob` as a single coalesced store write.

    The cut-consistent payload reads stay chunked exactly like
    :func:`flush_checkpoint_job` -- ``chunk_objects`` at a time, so stripe
    locks are held only briefly and ``should_abandon`` is honored at every
    chunk boundary -- but nothing touches the disk until the whole job has
    been gathered.  The accumulated chunks then land through the store's
    ``write_checkpoint_vectored`` entry point: one gathered ``writev`` of
    every record plus the commit marker for the log organization, one
    globally-sorted ``pwritev`` pass for the double backup, and at most one
    data fsync either way.

    An abandon request during the gather aborts before a single byte is
    written (the strictest possible crash semantics: the store keeps only
    its begin marker); a store fault surfaces exactly as in the chunked
    path.  ``on_chunk_written`` receives the job's full byte count once the
    gathered write has landed.
    """
    double_backup = isinstance(store, DoubleBackupStore)
    if double_backup:
        store.begin_checkpoint(job.backup_index, job.epoch)
    else:
        store.begin_checkpoint(job.epoch, job.is_full_dump)
    ids = job.object_ids
    chunks = []
    for start in range(0, ids.size, chunk_objects):
        if should_abandon is not None and should_abandon():
            store.abort_checkpoint()
            return False
        chunk = ids[start: start + chunk_objects]
        chunks.append((chunk, job.source.read_payloads(chunk)))
    if should_abandon is not None and should_abandon():
        store.abort_checkpoint()
        return False
    nbytes = store.write_checkpoint_vectored(chunks, job.cut_tick)
    if on_chunk_written is not None:
        on_chunk_written(nbytes)
    return True


class PayloadSource(Protocol):
    """Produces cut-consistent payload bytes for a batch of objects.

    Implementations must be safe to call from the writer thread while the
    mutator keeps updating: they take the stripe locks covering the batch,
    read the snapshot buffer for objects whose old value was saved, and the
    live table for the rest (whose live value *is* the cut value).
    """

    def read_payloads(self, object_ids: np.ndarray):
        """Return a contiguous bytes-like buffer of the objects' payloads."""
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
    #: Whether this is an every-C-th full flush (log stores only).
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
    #: Fixed-bucket distribution of every duration ever recorded (not just
    #: the window), in microseconds; filled on snapshots.
    duration_histogram: Optional[HistogramSnapshot] = field(
        default=None, compare=False
    )
    # Copy-on-write bookkeeping: True while ``durations`` is shared with a
    # snapshot, so the next record copies before mutating and the scrape
    # itself is O(1) instead of O(samples).
    _durations_shared: bool = field(default=False, repr=False, compare=False)
    _live_histogram: Optional[Histogram] = field(
        default=None, repr=False, compare=False
    )

    def record_duration(self, elapsed: float) -> None:
        """Append one checkpoint duration, keeping the window bounded."""
        if self._durations_shared:
            self.durations = list(self.durations)
            self._durations_shared = False
        self.durations.append(elapsed)
        if len(self.durations) > DURATION_WINDOW:
            del self.durations[: len(self.durations) - DURATION_WINDOW]
        if self._live_histogram is None:
            self._live_histogram = Histogram(
                np.zeros(len(DURATION_BUCKETS_US) + 3, dtype=np.int64),
                0,
                DURATION_BUCKETS_US,
            )
        self._live_histogram.observe(elapsed * 1e6)

    def snapshot(self) -> "WriterStats":
        """Detached copy for scrapers, O(buckets) however many samples.

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
            duration_histogram=(
                self._live_histogram.snapshot()
                if self._live_histogram is not None
                else None
            ),
        )
        snap._durations_shared = True
        self._durations_shared = True
        return snap


class AsyncCheckpointWriter:
    """A background thread that flushes checkpoints through a real store.

    One job is in flight at a time (checkpoints are sequential by
    construction -- the framework starts a new one only after the previous
    is durable), so the handoff is a single-slot queue guarded by an *idle*
    event.  The mutator submits, polls :attr:`idle` at tick boundaries, and
    the writer chews through the job in ``chunk_objects`` batches.
    """

    def __init__(
        self,
        store: StoreType,
        chunk_objects: int = DEFAULT_CHUNK_OBJECTS,
        name: str = "repro-ckpt-writer",
    ) -> None:
        if chunk_objects <= 0:
            raise CheckpointWriterError(
                f"chunk_objects must be positive, got {chunk_objects}"
            )
        self._store = store
        self._chunk = chunk_objects
        self._name = name
        self._jobs: "queue.Queue" = queue.Queue()
        self._idle = threading.Event()
        self._idle.set()
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._stats = WriterStats()
        self._closed = False

    # ------------------------------------------------------------------
    # Mutator-side interface
    # ------------------------------------------------------------------

    @property
    def store(self) -> StoreType:
        """The stable-storage structure this writer flushes through."""
        return self._store

    @property
    def idle(self) -> bool:
        """True when no checkpoint write is in flight."""
        return self._idle.is_set()

    @property
    def error(self) -> Optional[BaseException]:
        """The pending writer-thread failure, if any."""
        return self._error

    def start(self) -> None:
        """Start the writer thread (idempotent)."""
        if self._closed:
            raise CheckpointWriterError("writer is closed")
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name=self._name, daemon=True
            )
            self._thread.start()

    def check(self) -> None:
        """Re-raise a pending writer-thread failure on the caller."""
        if self._error is not None:
            raise CheckpointWriterError(
                f"asynchronous checkpoint writer failed: {self._error!r}"
            ) from self._error

    def submit(self, job: CheckpointJob) -> None:
        """Hand one checkpoint to the writer thread.

        The previous job must have finished (the framework guarantees this:
        a new checkpoint starts only once the last one is durable).
        """
        self.check()
        if not self._idle.is_set():
            raise CheckpointWriterError(
                "checkpoint job submitted while the previous one is in flight"
            )
        self.start()
        with self._lock:
            self._stats.jobs_submitted += 1
        self._idle.clear()
        self._jobs.put(job)

    def wait_idle(
        self, timeout: Optional[float] = None, check: bool = True
    ) -> bool:
        """Block until the in-flight job finishes; False on timeout.

        With ``check=False`` a pending writer error is left for the caller
        to inspect via :attr:`error` instead of being raised here.
        """
        finished = self._idle.wait(timeout)
        if check:
            self.check()
        return finished

    def stats(self) -> WriterStats:
        """Consistent snapshot of the lifetime counters (O(buckets))."""
        with self._lock:
            return self._stats.snapshot()

    def totals(self) -> Tuple[int, float]:
        """``(bytes_written, busy_seconds)``, read without a snapshot."""
        with self._lock:
            return self._stats.bytes_written, self._stats.busy_seconds

    @property
    def last_committed(self) -> Optional[Tuple[int, int]]:
        """``(epoch, cut_tick)`` of the newest committed checkpoint."""
        with self._lock:
            return self._stats.last_committed

    def close(self, timeout: float = 30.0, wait: bool = True) -> None:
        """Stop the writer thread and join it.

        ``wait=True`` lets the in-flight job run to commit (orderly
        shutdown); ``wait=False`` tells the thread to abandon the job at the
        next chunk boundary (crash semantics -- the store is left with an
        uncommitted checkpoint, exactly like a process kill).

        Raises :class:`~repro.errors.CheckpointWriterError` if the thread is
        still alive after ``timeout`` seconds -- a stuck writer must never be
        silently swallowed -- chaining the pending writer error if there is
        one.  A pending error is also re-raised after a successful join
        unless the writer is being abandoned.
        """
        self._closed = True
        thread = self._thread
        if thread is None:
            if wait:
                self.check()
            return
        if not wait:
            self._stop.set()
        self._jobs.put(_SENTINEL)
        thread.join(timeout=timeout)
        if thread.is_alive():
            message = (
                f"checkpoint writer thread did not stop within {timeout:.1f}s"
            )
            if self._error is not None:
                message += f" (pending writer error: {self._error!r})"
            raise CheckpointWriterError(message) from self._error
        self._thread = None
        if wait:
            self.check()

    def kill(self, timeout: float = 30.0) -> None:
        """Crash-style shutdown: abandon the in-flight job and join."""
        self.close(timeout=timeout, wait=False)

    # ------------------------------------------------------------------
    # Writer thread
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            job = self._jobs.get()
            if job is _SENTINEL:
                return
            try:
                completed = self._write_checkpoint(job)
            except BaseException as error:  # surfaced on the mutator side
                self._error = error
                self._idle.set()
                return
            self._idle.set()
            if not completed:
                return  # stop was requested mid-job

    def _write_checkpoint(self, job: CheckpointJob) -> bool:
        """Flush one checkpoint; False if abandoned on a stop request."""
        started = time.perf_counter()

        def on_chunk_written(nbytes: int) -> None:
            with self._lock:
                self._stats.bytes_written += nbytes

        completed = flush_checkpoint_job(
            self._store,
            job,
            self._chunk,
            should_abandon=self._stop.is_set,
            on_chunk_written=on_chunk_written,
        )
        if not completed:
            with self._lock:
                self._stats.jobs_abandoned += 1
            return False
        elapsed = time.perf_counter() - started
        with self._lock:
            self._stats.jobs_completed += 1
            self._stats.busy_seconds += elapsed
            self._stats.record_duration(elapsed)
            self._stats.last_committed = (job.epoch, job.cut_tick)
        return True
