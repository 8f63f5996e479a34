"""The checkpoint writer pool: K worker threads, the only asynchronous writer.

"We write the state to stable storage asynchronously" (Section 3.2): every
checkpoint that is flushed off the game thread is a job on this pool.  One
game server registers on a pool of one worker; a fleet of ``N`` shards
shares ``K`` workers, so the process runs ``O(pool_size)`` writer threads,
not ``O(num_shards)`` threads that mostly idle between cadence points.

* **Handles.**  Each shard registers its store and receives a
  :class:`PoolWriter` whose mutator-side surface (``submit`` / ``check`` /
  ``idle`` / ``wait_idle`` / ``stats`` / ``totals`` / ``close``) is what
  :class:`~repro.engine.executor.RealExecutor` and the validation harness
  program against.

* **Oldest cut first, one job per wakeup.**  Each handle has at most
  one job in flight (checkpoints are sequential per shard), so the queue
  holds at most one job per handle and needs no bound of its own.
  Recovery time depends on the *age* of the oldest checkpoint at crash
  time, so a worker that wakes pops the queued job whose cut is oldest
  (submission order breaks ties, so equal-cadence shards drain
  round-robin) and flushes it through
  :func:`~repro.engine.writer.flush_checkpoint_job`: one ``writev`` (log
  stores, commit marker included) or one ``pwritev`` per disk run
  (double-backup stores), with at most one data fsync.  POSIX has no
  gathered write across files, so two queued jobs go to two workers.

* **Failure isolation.**  A store raising mid-flush poisons only its own
  handle: the error is recorded there and re-raised on *that shard's* next
  ``check``/``submit``, the store keeps an uncommitted image (exactly the
  torn state recovery ignores) and the worker moves on to the other
  shards' jobs.

``close(wait=True)`` drains every queued job to commit before the workers
exit; ``close(wait=False)`` / ``kill`` abandons queued and in-flight jobs at
the next chunk boundary (crash semantics).  A pool that cannot join its
workers within the timeout raises rather than silently leaking threads.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.engine.writer import (
    CheckpointJob,
    StoreType,
    WriterStats,
    flush_checkpoint_job,
)
from repro.errors import CheckpointWriterError
from repro.obs.trace import get_tracer

#: Name prefix of the pool's worker threads (``<prefix>-<worker>``).
POOL_NAME = "repro-ckpt-pool"


@dataclass
class PoolStats:
    """Cross-thread snapshot of the pool's lifetime counters."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_abandoned: int = 0
    bytes_written: int = 0
    #: Wall-clock seconds workers spent inside jobs (begin to commit).
    busy_seconds: float = 0.0
    #: Jobs waiting in the admission queue at this snapshot.
    queue_depth: int = 0
    #: Largest number of jobs ever waiting in the admission queue.
    max_queue_depth: int = 0
    #: Worst service-order inversion: the cut-tick gap between the job a
    #: worker picked and the *oldest* job then queued.  Oldest-cut-first
    #: service holds this at zero; the property tests assert it stays there.
    max_picked_staleness_ticks: int = 0
    #: Largest per-shard checkpoint age (newest cut handed to the pool minus
    #: newest durable cut) observed at this snapshot -- the fleet-facing
    #: gauge recovery time depends on.
    max_checkpoint_age_ticks: int = 0


class PoolWriter:
    """One shard's submission handle onto a writer pool.

    Obtained via :meth:`CheckpointWriterPool.register`, never constructed
    directly.
    """

    def __init__(
        self, pool: "CheckpointWriterPool", store: StoreType, index: int,
        slab: Optional[np.ndarray],
    ) -> None:
        self._pool = pool
        # Owned by whichever worker flushes this handle's one job.
        self._slab = slab
        self._store = store
        self._index = index
        self._name = f"shard-{index:02d}"
        self._idle = threading.Event()
        self._idle.set()
        self._abandon = threading.Event()
        self._error: Optional[BaseException] = None
        self._job: Optional[CheckpointJob] = None  # guarded by the pool lock
        self._stats = WriterStats()  # guarded by the pool lock
        self._closed = False
        # Admission bookkeeping, guarded by the pool lock: submission
        # sequence number (the tie-break between equal cuts) and the
        # newest cut tick this shard has handed to the pool.
        self._arrival = 0
        self._newest_cut = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def store(self) -> StoreType:
        """The stable-storage structure this handle flushes through."""
        return self._store

    @property
    def name(self) -> str:
        """Display name of the handle: ``shard-NN``, its registration
        order."""
        return self._name

    @property
    def index(self) -> int:
        """Registration order on the pool."""
        return self._index

    @property
    def idle(self) -> bool:
        """True when this shard has no checkpoint write queued or in flight."""
        return self._idle.is_set()

    @property
    def error(self) -> Optional[BaseException]:
        """The pending failure from this shard's last flush, if any."""
        return self._error

    @property
    def last_committed(self):
        """``(epoch, cut_tick)`` of this shard's newest committed checkpoint."""
        with self._pool._lock:
            return self._stats.last_committed

    @property
    def checkpoint_age(self) -> int:
        """Ticks between this shard's newest cut handed to the pool and its
        newest *durable* cut -- the replay work a crash right now would cost
        beyond the unavoidable cadence gap.  0 while the shard is caught up.
        """
        with self._pool._lock:
            return self._checkpoint_age_locked()

    def _checkpoint_age_locked(self) -> int:
        if self._newest_cut < 0:
            return 0
        committed = self._stats.last_committed
        committed_cut = committed[1] if committed is not None else -1
        return max(0, self._newest_cut - committed_cut)

    def stats(self) -> WriterStats:
        """Consistent snapshot of this shard's counters (O(1))."""
        with self._pool._lock:
            return self._stats.snapshot()

    def totals(self) -> Tuple[int, float]:
        """``(bytes_written, busy_seconds)``, read without a snapshot."""
        with self._pool._lock:
            return self._stats.bytes_written, self._stats.busy_seconds

    # ------------------------------------------------------------------
    # Mutator-side interface
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Re-raise this shard's pending flush failure on the caller."""
        if self._error is not None:
            raise CheckpointWriterError(
                f"checkpoint writer pool failed on {self._name}: "
                f"{self._error!r}"
            ) from self._error

    def submit(self, job: CheckpointJob) -> None:
        """Hand one checkpoint to the pool (previous one must be finished)."""
        self._pool._submit(self, job)

    def wait_idle(
        self, timeout: Optional[float] = None, check: bool = True
    ) -> bool:
        """Block until this shard's job finishes; False on timeout."""
        finished = self._idle.wait(timeout)
        if check:
            self.check()
        return finished

    def close(self, timeout: float = 30.0, wait: bool = True) -> None:
        """Retire the handle (the pool itself keeps running).

        ``wait=True`` lets a queued or in-flight job run to commit and then
        re-raises any pending error; ``wait=False`` drops a queued job
        outright and tells a worker mid-flush to abandon at the next chunk
        boundary (crash semantics).  Either way the handle is idle when this
        returns -- no worker will touch the store afterwards, and the slab
        is released -- or a :class:`~repro.errors.CheckpointWriterError` is
        raised.
        """
        self._closed = True
        if not wait:
            self._pool._abandon_handle(self)
        if not self.wait_idle(timeout=timeout, check=False):
            message = (
                f"writer pool did not release {self._name} within "
                f"{timeout:.1f}s"
            )
            if self._error is not None:
                message += f" (pending writer error: {self._error!r})"
            raise CheckpointWriterError(message) from self._error
        self._slab = None
        if wait:
            self.check()

    def kill(self, timeout: float = 30.0) -> None:
        """Crash-style retirement: abandon this shard's job and detach."""
        self.close(timeout=timeout, wait=False)

    def _slab_for(self, rows: int) -> np.ndarray:
        """This handle's slab, allocated on first use and grown only for a
        job that needs more ``rows`` than it has."""
        if self._slab is None or len(self._slab) < rows:
            self._slab = None  # freed before its successor is allocated
            self._slab = np.empty(
                (rows, self._store.geometry.object_bytes), dtype=np.uint8
            )
        return self._slab


class CheckpointWriterPool:
    """K shared worker threads flushing checkpoints for many shards."""

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise CheckpointWriterError(
                f"num_workers must be positive, got {num_workers}"
            )
        self._num_workers = num_workers
        self._arrival_counter = 0
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._ready: Deque[PoolWriter] = deque()
        self._handles: List[PoolWriter] = []
        self._threads: List[threading.Thread] = []
        self._shutdown = False
        self._abandon_all = threading.Event()
        self._stats = PoolStats()
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        """Size of the worker crew (the total writer thread count)."""
        return self._num_workers

    @property
    def handles(self) -> List[PoolWriter]:
        """Registered handles, in registration order."""
        with self._lock:
            return list(self._handles)

    def stats(self) -> PoolStats:
        """Consistent snapshot of the pool-wide lifetime counters."""
        with self._lock:
            ages = [
                handle._checkpoint_age_locked() for handle in self._handles
            ]
            return PoolStats(
                jobs_submitted=self._stats.jobs_submitted,
                jobs_completed=self._stats.jobs_completed,
                jobs_abandoned=self._stats.jobs_abandoned,
                bytes_written=self._stats.bytes_written,
                busy_seconds=self._stats.busy_seconds,
                queue_depth=len(self._ready),
                max_queue_depth=self._stats.max_queue_depth,
                max_picked_staleness_ticks=(
                    self._stats.max_picked_staleness_ticks
                ),
                max_checkpoint_age_ticks=max(ages, default=0),
            )

    # ------------------------------------------------------------------
    # Registration and submission
    # ------------------------------------------------------------------

    def register(
        self, store: StoreType, slab: Optional[np.ndarray] = None
    ) -> PoolWriter:
        """Attach a shard's store; returns its submission handle.

        ``slab`` is memory the shard's jobs are already staged in (the
        process backend's shared staging slot, one uint8 row per object);
        without it the handle allocates its own slab on its first job.
        """
        if self._closed:
            raise CheckpointWriterError("writer pool is closed")
        with self._lock:
            index = len(self._handles)
            handle = PoolWriter(self, store, index, slab)
            self._handles.append(handle)
        return handle

    def _ensure_workers(self) -> None:
        if self._threads:
            return
        with self._lock:
            if self._threads:
                return
            for worker in range(self._num_workers):
                thread = threading.Thread(
                    target=self._run,
                    name=f"{POOL_NAME}-{worker}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def _submit(self, handle: PoolWriter, job: CheckpointJob) -> None:
        handle.check()
        if self._closed or handle._closed:
            raise CheckpointWriterError("writer pool is closed")
        if not handle._idle.is_set():
            raise CheckpointWriterError(
                f"checkpoint job submitted on {handle.name} while the "
                "previous one is in flight"
            )
        self._ensure_workers()
        with self._lock:
            if self._shutdown:
                raise CheckpointWriterError("writer pool is closed")
            handle._job = job
            handle._abandon.clear()
            handle._idle.clear()
            handle._arrival = self._arrival_counter
            self._arrival_counter += 1
            if job.cut_tick > handle._newest_cut:
                handle._newest_cut = job.cut_tick
            handle._stats.jobs_submitted += 1
            self._stats.jobs_submitted += 1
            self._ready.append(handle)
            if len(self._ready) > self._stats.max_queue_depth:
                self._stats.max_queue_depth = len(self._ready)
            depth = len(self._ready)
            self._work.notify()
        get_tracer().instant(
            "ckpt_admit",
            shard=handle.name,
            epoch=job.epoch,
            cut=job.cut_tick,
            depth=depth,
        )

    def _abandon_handle(self, handle: PoolWriter) -> None:
        """Drop a queued job, or flag an in-flight one to stop (kill path)."""
        with self._lock:
            handle._abandon.set()
            if handle in self._ready:
                # Never picked up: retire it without touching the store.
                self._ready.remove(handle)
                handle._job = None
                handle._stats.jobs_abandoned += 1
                self._stats.jobs_abandoned += 1
                handle._idle.set()

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------

    def _take_locked(self) -> PoolWriter:
        """Pop the queued job with the oldest cut (arrival order breaks
        ties), so the longest-lagging shard is always flushed next."""
        oldest_queued_cut = min(
            handle._job.cut_tick for handle in self._ready
        )
        first = min(
            self._ready,
            key=lambda handle: (handle._job.cut_tick, handle._arrival),
        )
        self._ready.remove(first)
        picked_staleness = first._job.cut_tick - oldest_queued_cut
        if picked_staleness > self._stats.max_picked_staleness_ticks:
            self._stats.max_picked_staleness_ticks = picked_staleness
        return first

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._ready and not self._shutdown:
                    self._work.wait()
                if not self._ready:
                    return  # shutdown with an empty queue
                handle = self._take_locked()
            self._flush(handle)

    def _flush(self, handle: PoolWriter) -> None:
        """Flush one shard's job; errors poison only that shard's handle."""
        job = handle._job

        def should_abandon() -> bool:
            return handle._abandon.is_set() or self._abandon_all.is_set()

        def on_chunk_written(nbytes: int) -> None:
            with self._lock:
                handle._stats.bytes_written += nbytes
                self._stats.bytes_written += nbytes

        started = time.perf_counter()
        try:
            if should_abandon():
                # Killed between queue pop and flush: leave the store alone.
                completed = False
            else:
                with get_tracer().span(
                    "pool_flush",
                    shard=handle.name,
                    epoch=job.epoch,
                    cut=job.cut_tick,
                ):
                    completed = flush_checkpoint_job(
                        handle._store,
                        job,
                        should_abandon=should_abandon,
                        on_chunk_written=on_chunk_written,
                        slab_for=handle._slab_for,
                    )
            elapsed = time.perf_counter() - started
            with self._lock:
                if completed:
                    handle._stats.jobs_completed += 1
                    handle._stats.busy_seconds += elapsed
                    handle._stats.record_duration(elapsed)
                    handle._stats.last_committed = (job.epoch, job.cut_tick)
                    self._stats.jobs_completed += 1
                    self._stats.busy_seconds += elapsed
                else:
                    handle._stats.jobs_abandoned += 1
                    self._stats.jobs_abandoned += 1
        except BaseException as error:  # surfaced on that shard's mutator
            handle._error = error
            with self._lock:
                handle._stats.jobs_abandoned += 1
                self._stats.jobs_abandoned += 1
        finally:
            handle._job = None
            handle._idle.set()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self, timeout: float = 30.0, wait: bool = True) -> None:
        """Stop the workers and join them.

        ``wait=True`` drains every queued job to commit first (orderly
        shutdown); ``wait=False`` abandons queued and in-flight jobs at the
        next chunk boundary (crash semantics).  Raises if any worker is still
        alive after ``timeout`` seconds, or -- on an orderly close -- if any
        handle holds a pending flush error.
        """
        self._closed = True
        if not wait:
            self._abandon_all.set()
        with self._lock:
            self._shutdown = True
            self._work.notify_all()
        deadline = time.monotonic() + timeout
        stuck = []
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                stuck.append(thread.name)
        if stuck:
            raise CheckpointWriterError(
                f"writer pool workers did not stop within {timeout:.1f}s: "
                f"{', '.join(stuck)}"
            )
        self._threads = []
        if wait:
            for handle in self.handles:
                # A retired handle's error already surfaced on its own
                # shard's close/kill path; only live handles re-raise here.
                if not handle._closed:
                    handle.check()

    def kill(self, timeout: float = 30.0) -> None:
        """Crash-style shutdown: abandon everything in flight and join."""
        self.close(timeout=timeout, wait=False)

    def __enter__(self) -> "CheckpointWriterPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._closed:
            self.close()
