"""The process-backend shard worker and its parent-side handle.

``ShardFleet(backend="process")`` splits each shard across two processes:

* the **worker process** (:func:`shard_worker_main`) runs the shard's
  mutator loop -- :class:`~repro.engine.shard.MMOShard` over a
  :class:`~repro.state.shared.SharedGameStateTable` -- on its own core,
  free of the parent's GIL;
* the **parent** (:class:`ProcessShardHandle`) keeps the shared
  :class:`~repro.engine.writer_pool.CheckpointWriterPool` and lands every
  checkpoint on disk, reading the payload bytes straight out of shared
  memory (zero-copy: the iovecs handed to ``writev``/``pwritev`` point into
  the segment the worker staged into).

The cut protocol is *eager staging*.  In the threaded fleet the writer
gathers cut-consistent payloads lazily while the mutator keeps ticking,
which needs the stripe-lock protocol.  Across processes, the worker instead
gathers the whole write set into the shard's shared staging slot
*synchronously at the cut* -- inside
:meth:`WorkerCheckpointProxy.submit`, before the next tick can run -- and
only then notifies the parent.  The staged bytes are by construction the
cut values (nothing has mutated since the cut), so no cross-process locking
exists anywhere, and the payloads are byte-identical to what the threaded
path's snapshot-or-live gather produces for the same cut.  The framework
never starts a checkpoint while one is in flight, so the staging slot is
never overwritten before the parent is done with it.

Each shard has one shared segment: table, staging, metrics row, command
and trace rings, and an int64 control row.  A run crosses the process
boundary as the control row plus one-byte ``os.pipe`` doorbells (``go``
down, ``done`` up); the rest goes over a :func:`multiprocessing.Pipe`.
Each control-row field has a single writer (worker: tick, submit and
stats fields; parent: run, commit and bytes fields; aligned int64 stores
are atomic on every platform the fork backend runs on).  Worker death is
EOF on ``done`` and on the pipe, that shard's failure -- never a hang.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import multiprocessing
import os
import queue
import threading
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.registry import algorithm_class
from repro.engine.server import ServerStats, open_checkpoint_store
from repro.engine.shard import GAME_SUBDIRECTORY, MMOShard
from repro.engine.shard_handle import ShardHandle, TickLoop
from repro.engine.writer import CheckpointJob, WriterStats
from repro.errors import CheckpointWriterError, EngineError
from repro.obs.metrics import METRICS_SLOT, RowMetrics
from repro.obs.telemetry import SHARD_METRICS_LAYOUT
from repro.obs.trace import SharedRingTraceSink, get_tracer
from repro.state import ring as command_ring
from repro.state.ring import SharedCommandRing, ring_slots
from repro.state.shared import (
    SharedArena,
    SharedGameStateTable,
    reap_stale_segments,
)

#: Exit code a worker dies with on an injected crash (tests assert on it).
CRASH_EXIT_CODE = 42

# ----------------------------------------------------------------------
# The shared control row: int64 fields.  Each field has exactly one
# writing side, so plain aligned stores are race-free.
# ----------------------------------------------------------------------
F_TICKS_RUN = 0        # worker: ticks completed
F_JOB_STATE = 1        # worker sets IN_FLIGHT, parent sets IDLE / ERROR
F_JOB_EPOCH = 2        # worker: epoch of the in-flight checkpoint
F_JOB_CUT = 3          # worker: cut tick of the in-flight checkpoint
F_COMMITTED_EPOCH = 4  # parent: newest durable epoch (0 = none yet)
F_COMMITTED_CUT = 5    # parent: newest durable cut tick
F_JOBS_SUBMITTED = 6   # worker
F_JOBS_COMPLETED = 7   # parent
F_BYTES_WRITTEN = 8    # parent
F_RUN_COUNT = 9        # parent: ticks of the run it rings for
F_RUN_BARRIER = 10     # parent: 1 if that run waits out each checkpoint
F_PARENT_SENT = 11     # parent: messages sent on the pipe
F_PARENT_TAKEN = 12    # worker: of those, messages taken off the pipe
F_WORKER_SENT = 13     # worker: messages sent on the pipe
F_STATS = 14           # worker: its ServerStats, one STATS_DTYPE record
#: ServerStats as one record: its fields in order, float64 where the
#: default is a float, else int64.
STATS_DTYPE = np.dtype([
    (field.name, float if isinstance(field.default, float) else np.int64)
    for field in dataclasses.fields(ServerStats)
])
NUM_CONTROL_FIELDS = F_STATS + len(STATS_DTYPE)
#: Doorbell bytes: why ``go`` woke the worker, how its run ended on ``done``.
GO_RUN, GO_MESSAGE, DONE_OK, DONE_FAILED = b"r", b"m", b"k", b"f"

JOB_IDLE = 0
JOB_IN_FLIGHT = 1
JOB_ERROR = 2

#: Arena slot names of one shard's segment.
TABLE_SLOT = SharedGameStateTable.SLOT
STAGED_IDS_SLOT = "staged_ids"
STAGING_SLOT = "staging"
CONTROL_SLOT = "control"
#: Slot-name prefix of the shard's inbound command ring.
COMMAND_RING_PREFIX = "cmd"
#: Slot-name prefix of the shard's outbound span-event ring.
TRACE_RING_PREFIX = "trc"
#: Capacity of the trace ring: a few thousand JSON-encoded spans between
#: parent drains; overflow drops spans, never stalls the tick loop.
TRACE_RING_BYTES = 1 << 18


def shard_arena_slots(geometry, dtype) -> list:
    """Slot layout of one shard's shared segment: table, staging, control,
    commands, metrics, trace.

    The staging area is sized for the worst case (a full dump writes every
    object), so any checkpoint's write set fits without reallocation.  The
    command ring (:data:`~repro.state.ring.COMMAND_RING_BYTES`) is the
    batched ingestion path: the parent pushes client commands, the worker
    drains one batch per tick.  The metrics row and trace ring are the
    observability plane: the worker publishes tick timings into the metrics
    row (the parent scrapes it with zero syscalls) and, when tracing is
    enabled, serializes span events into the trace ring for the parent to
    merge.
    """
    return [
        SharedGameStateTable.slot_spec(geometry, dtype),
        (STAGED_IDS_SLOT, (geometry.num_objects,), np.dtype(np.int64)),
        (
            STAGING_SLOT,
            (geometry.num_objects, geometry.cells_per_object),
            np.dtype(dtype),
        ),
        (CONTROL_SLOT, (NUM_CONTROL_FIELDS,), np.dtype(np.int64)),
        SHARD_METRICS_LAYOUT.slot_spec(),
        *ring_slots(
            command_ring.COMMAND_RING_BYTES, prefix=COMMAND_RING_PREFIX
        ),
        *ring_slots(TRACE_RING_BYTES, prefix=TRACE_RING_PREFIX),
    ]


def write_stats(row: np.ndarray, stats: ServerStats) -> None:
    """Store ``stats`` as the control row's stats record."""
    row[F_STATS:].view(STATS_DTYPE)[0] = tuple(
        getattr(stats, name) for name in STATS_DTYPE.names
    )


def read_stats(row: np.ndarray) -> ServerStats:
    """The ServerStats :func:`write_stats` stored in ``row``."""
    return ServerStats(*row[F_STATS:].view(STATS_DTYPE)[0].tolist())


# ======================================================================
# Worker side
# ======================================================================


class WorkerCheckpointProxy:
    """The worker-side writer: stages payloads, then hands off to the parent.

    Duck-types the mutator surface of
    :class:`~repro.engine.writer_pool.PoolWriter` (``submit`` /
    ``check`` / ``idle`` / ``wait_idle`` / ``stats`` / ``last_committed`` /
    ``close``) so :class:`~repro.engine.executor.RealExecutor` plugs it in
    unchanged.  ``concurrent_reader = False`` tells the executor that nobody
    ever reads the table from another thread -- the payload capture happens
    synchronously inside :meth:`submit`, at the cut -- so it keeps no
    snapshot and takes no stripe locks: the gather into the staging slot is
    the checkpoint's only copy.
    """

    #: No concurrent reads of the table: payloads are captured inside submit.
    concurrent_reader = False

    def __init__(
        self,
        send: Callable[[tuple], None],
        control_row: np.ndarray,
        staged_ids: np.ndarray,
        staging: np.ndarray,
        metrics_row: RowMetrics,
    ) -> None:
        self._send = send
        self._control = control_row
        self._staged_ids = staged_ids
        self._staging = staging
        self._staging_us = metrics_row.counter("staging_us")
        self._tracer = get_tracer()
        #: Armed by the ``("crash", "at_checkpoint")`` test command: the
        #: worker dies right after handing a checkpoint to the parent, so
        #: the parent's flush is in flight when the death is detected.
        self.crash_after_submit = False

    @property
    def idle(self) -> bool:
        """True when the parent has no flush of ours queued or in flight."""
        return int(self._control[F_JOB_STATE]) != JOB_IN_FLIGHT

    def check(self) -> None:
        """Re-raise a parent-side flush failure on the mutator."""
        if int(self._control[F_JOB_STATE]) == JOB_ERROR:
            raise CheckpointWriterError(
                "checkpoint flush failed in the fleet parent (epoch "
                f"{int(self._control[F_JOB_EPOCH])}, cut tick "
                f"{int(self._control[F_JOB_CUT])})"
            )

    def submit(self, job: CheckpointJob) -> None:
        """Stage the cut-consistent payloads and notify the parent.

        Runs on the game thread at the checkpoint cut, *before* the next
        tick -- the staged bytes therefore are the cut values, with no
        locking against the parent required.
        """
        self.check()
        if not self.idle:
            raise CheckpointWriterError(
                "previous checkpoint is still being flushed by the parent"
            )
        count = int(job.object_ids.size)
        staging_started = time.monotonic_ns()
        with self._tracer.span(
            "ckpt_stage", epoch=int(job.epoch), cut=int(job.cut_tick)
        ):
            self._staged_ids[:count] = job.object_ids
            job.source.read_payloads_into(
                job.object_ids, self._staging[:count]
            )
        self._staging_us.inc((time.monotonic_ns() - staging_started) // 1000)
        row = self._control
        row[F_JOB_EPOCH] = int(job.epoch)
        row[F_JOB_CUT] = int(job.cut_tick)
        row[F_JOBS_SUBMITTED] += 1
        row[F_JOB_STATE] = JOB_IN_FLIGHT
        self._send(
            (
                "checkpoint",
                count,
                int(job.epoch),
                int(job.cut_tick),
                job.backup_index,
                bool(job.is_full_dump),
            )
        )
        if self.crash_after_submit:
            os._exit(CRASH_EXIT_CODE)

    def wait_idle(
        self, timeout: Optional[float] = None, check: bool = True
    ) -> bool:
        """Spin-wait until the parent finishes our flush; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.idle:
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.0002)
        if check:
            self.check()
        return True

    def stats(self) -> WriterStats:
        """Lifetime counters, read from the shared control row."""
        row = self._control
        return WriterStats(
            jobs_submitted=int(row[F_JOBS_SUBMITTED]),
            jobs_completed=int(row[F_JOBS_COMPLETED]),
            bytes_written=int(row[F_BYTES_WRITTEN]),
            last_committed=self.last_committed,
        )

    def totals(self):
        """``(bytes_written, busy_seconds)``; the flush runs in the parent,
        so this side has no busy time to report."""
        return int(self._control[F_BYTES_WRITTEN]), 0.0

    @property
    def last_committed(self):
        """``(epoch, cut_tick)`` of the newest durable checkpoint, or None."""
        epoch = int(self._control[F_COMMITTED_EPOCH])
        if epoch == 0:
            return None
        return (epoch, int(self._control[F_COMMITTED_CUT]))

    def close(self, timeout: float = 30.0, wait: bool = True) -> None:
        """Writer-protocol close: optionally let the in-flight flush finish."""
        if wait:
            self.wait_idle(timeout=timeout, check=False)


def shard_worker_main(
    app,
    directory: str,
    algorithm: str,
    seed: int,
    shard_kwargs: dict,
    arena: SharedArena,
    conn,
    doorbells: Tuple[int, int],
    parent_ends: Sequence[int],
) -> None:
    """Entry point of one shard's worker process (fork start method).

    The worker sleeps in a one-byte read of ``go`` (``doorbells[0]``).
    ``GO_RUN``: run ``F_RUN_COUNT`` ticks of the shard's :class:`TickLoop`
    (``F_RUN_BARRIER``: each waits for its checkpoint to become durable,
    the deterministic schedule of the byte-identity tests), store the
    ``ServerStats`` at ``F_STATS`` and write ``DONE_OK`` to ``done``
    (``doorbells[1]``) -- or send ``("failed", traceback)`` and write
    ``DONE_FAILED``.  ``GO_MESSAGE``: take the pipe messages, as after
    every tick while ``F_PARENT_TAKEN`` trails ``F_PARENT_SENT``:
    ``("quiesce",)`` -> ``("quiesced",)``, ``("close",)`` -> ``("closed",)``
    and ``("crash", when)`` (the exit points of
    :meth:`~repro.engine.fleet.ShardFleet.crash_worker`, no ack).

    EOF on ``go`` means the parent died; closing ``parent_ends`` (every
    parent-side doorbell end forked into this worker) lets it come.  Any
    unexpected failure is reported as ``("fatal", traceback)``.
    """
    go, done = doorbells
    try:
        for fd in parent_ends:
            os.close(fd)
        table = SharedGameStateTable(app.geometry, arena, dtype=app.dtype)
        control = arena.array(CONTROL_SLOT)
        # This worker is the single writer of the tick-loop fields of its
        # shared metrics row; the parent scrapes them without a syscall.
        metrics_row = RowMetrics(
            SHARD_METRICS_LAYOUT, arena.array(METRICS_SLOT)
        )
        # The tracer singleton was inherited through fork: re-stamp the pid
        # and, when enabled, route spans through the shared trace ring so
        # the parent can merge them onto the fleet timeline.
        tracer = get_tracer()
        tracer.pid = os.getpid()
        if tracer.enabled:
            tracer.set_sink(SharedRingTraceSink(
                SharedCommandRing(arena, prefix=TRACE_RING_PREFIX)
            ))

        def send(message: tuple) -> None:
            control[F_WORKER_SENT] += 1
            conn.send(message)

        proxy = WorkerCheckpointProxy(
            send,
            control,
            arena.array(STAGED_IDS_SLOT),
            arena.array(STAGING_SLOT),
            metrics_row,
        )
        shard = MMOShard(
            app,
            directory,
            algorithm=algorithm,
            seed=seed,
            table=table,
            writer=proxy,
            **shard_kwargs,
        )
        loop = TickLoop(
            shard,
            SharedCommandRing(arena, prefix=COMMAND_RING_PREFIX),
            metrics_row,
        )

        def between_ticks() -> None:
            control[F_TICKS_RUN] = shard.game.ticks_run
            while control[F_PARENT_TAKEN] < control[F_PARENT_SENT]:
                control[F_PARENT_TAKEN] += 1
                _worker_control(conn.recv(), shard, proxy, loop, send)

        loop.after_tick = between_ticks
        send(("ready", os.getpid()))
        while True:
            wake = os.read(go, 1)
            if not wake:
                return  # parent died; nothing to report to
            if wake == GO_MESSAGE:
                between_ticks()
                continue
            outcome = DONE_OK
            try:
                loop.run(
                    int(control[F_RUN_COUNT]), bool(control[F_RUN_BARRIER])
                )
            except Exception:
                send(("failed", traceback.format_exc()))
                outcome = DONE_FAILED
            write_stats(control, shard.game.stats)
            os.write(done, outcome)
    except EOFError:
        return  # parent died; nothing to report to
    except BaseException:
        try:
            conn.send(("fatal", traceback.format_exc()))
        except Exception:
            pass


def _crash_now() -> None:
    os._exit(CRASH_EXIT_CODE)


def _trim_heap_before_fork() -> None:
    """Return the parent's freed heap pages to the OS (glibc's
    ``malloc_trim(0)``; a no-op elsewhere), so no worker starts with a
    copy of them."""
    with contextlib.suppress(AttributeError, OSError):
        ctypes.CDLL(None).malloc_trim(0)


def _worker_control(message, shard, proxy, loop, send) -> None:
    """Handle one parent message, between runs or mid-run between ticks."""
    kind = message[0]
    if kind == "quiesce":
        shard.wait_checkpoint_idle()
        send(("quiesced",))
    elif kind == "crash":
        when = message[1]
        if when == "now":
            _crash_now()
        elif when == "at_checkpoint":
            proxy.crash_after_submit = True
        elif when == "mid_drain":
            loop.after_drain = _crash_now
        else:
            raise EngineError(f"unknown crash mode {when!r}")
    elif kind == "close":
        shard.close()
        send(("closed",))
        os._exit(0)
    else:
        raise EngineError(f"unknown worker command {kind!r}")


# ======================================================================
# Parent side
# ======================================================================


class _StagedSource:
    """PayloadSource over a shard's shared staging slot (zero-copy).

    The worker filled the slot at the cut, in id order, and the slot is
    also the pool handle's slab: the flush stages each chunk into the rows
    the chunk already occupies, so ``read_payloads_into`` only checks that
    the ids and the destination are its own staged rows and copies nothing.
    The only copy on the whole checkpoint path is the worker's one gather.
    """

    def __init__(self, ids: np.ndarray, rows: np.ndarray) -> None:
        self._ids = ids
        self._rows = rows

    def read_payloads_into(self, object_ids: np.ndarray, out: np.ndarray) -> None:
        start = int(np.searchsorted(self._ids, object_ids[0]))
        staged = self._rows[start: start + object_ids.size]
        if not (
            out.ctypes.data == staged.ctypes.data
            and out.shape == staged.shape
            and np.array_equal(self._ids[start: start + object_ids.size],
                               object_ids)
        ):
            raise EngineError(
                "staged checkpoint rows do not match the requested chunk"
            )


class ProcessShardHandle(ShardHandle):
    """The parent's end of one worker: segment, doorbells, pipe, flushes.

    A run rings ``go`` and returns once ``done`` rings back and every
    checkpoint it handed off has landed.  A dispatcher thread owns the
    receiving end of the pipe.  ``checkpoint`` messages are serviced
    inline -- build a :class:`CheckpointJob` over the staged shared-memory
    bytes, submit it through this shard's pool handle, wait for
    durability, publish the committed epoch to the control row, count it
    landed -- while every other message is queued for whichever call waits
    on it.  EOF on the pipe (the worker died) is queued as ``("died",)``.
    """

    #: The parent always flushes through a shared pool; a fleet that did
    #: not ask for one gets a small default crew.
    default_pool_size = 2

    def __init__(
        self, index: int, geometry, process, conn, go: int, done: int,
        arena: SharedArena,
    ) -> None:
        super().__init__(
            index,
            geometry,
            SharedCommandRing(arena, prefix=COMMAND_RING_PREFIX),
            RowMetrics(SHARD_METRICS_LAYOUT, arena.array(METRICS_SLOT)),
        )
        self.trace_ring = SharedCommandRing(arena, prefix=TRACE_RING_PREFIX)
        self.process = process
        # Kept here: release closes the process object of an exited worker.
        self.pid = process.pid
        self._process_closed = False
        self.conn = conn
        self.go, self.done = go, done  # parent ends: write go, read done
        self.arena = arena
        self.control = arena.array(CONTROL_SLOT)
        self.store = None
        self.pool_handle = None
        self.failed: Optional[EngineError] = None
        self.flush_error: Optional[BaseException] = None
        self._messages: "queue.Queue" = queue.Queue()
        # Handoffs the dispatcher has landed, and whether it met EOF.
        self._landing = threading.Condition()
        self._landed, self._hung_up = 0, False
        self._dispatcher = threading.Thread(
            target=self._dispatch,
            name=f"repro-shard-{index:02d}-dispatch",
            daemon=True,
        )
        self._staged_ids = arena.array(STAGED_IDS_SLOT)
        # One uint8 row per object: the pool handle's slab.
        self._staging = arena.array(STAGING_SLOT).view(np.uint8)

    @classmethod
    def open_all(
        cls,
        app_factory,
        directories: Sequence[str],
        algorithm: str,
        seed: int,
        shard_kwargs: dict,
        pool,
    ) -> List["ProcessShardHandle"]:
        """Fork one worker per directory, each over a fresh shared arena.

        Phased for fork safety: every segment is created and every worker
        forked *before* any parent-side thread starts (the pool's writer
        threads spin up lazily on the first submit; the dispatchers start
        last), so no child can inherit a locked thread.  The parent opens
        its own store handles only after each worker's ``ready`` handshake
        confirms the files exist.  All or nothing.
        """
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            raise EngineError(
                "backend='process' needs the fork start method "
                "(unavailable on this platform)"
            ) from None
        # A previous parent that was SIGKILLed may have left segments
        # behind; their owner pid is dead, so this reclaims them.
        reap_stale_segments()
        _trim_heap_before_fork()
        handles: List[ProcessShardHandle] = []
        parent_ends: List[int] = []  # no worker may keep one of these
        try:
            for index, directory in enumerate(directories):
                app = app_factory(index)
                arena = SharedArena.create(
                    shard_arena_slots(app.geometry, app.dtype)
                )
                fds = ()
                try:
                    fds = os.pipe() + os.pipe()
                    go_r, go_w, done_r, done_w = fds
                    parent_ends += (go_w, done_r)
                    parent_conn, child_conn = context.Pipe()
                    process = context.Process(
                        target=shard_worker_main,
                        args=(app, directory, algorithm, seed + index,
                              shard_kwargs, arena, child_conn,
                              (go_r, done_w), parent_ends),
                        name=f"repro-shard-{index:02d}",
                        daemon=True,
                    )
                    process.start()
                except BaseException:
                    for fd in fds:
                        os.close(fd)
                    arena.destroy()
                    raise
                child_conn.close()
                os.close(go_r)
                os.close(done_w)
                handles.append(cls(index, app.geometry, process, parent_conn,
                                   go_w, done_r, arena))
            for handle, directory in zip(handles, directories):
                handle._attach(directory, algorithm, shard_kwargs, pool)
        except BaseException:
            for handle in handles:
                handle.crash()
                handle.release()
            raise
        for handle in handles:
            handle._dispatcher.start()
        return handles

    def _attach(self, directory: str, algorithm: str, shard_kwargs: dict,
                pool) -> None:
        """Wait for the worker's ``ready``, then open the parent's store
        handle on the files it created and register it with the pool."""
        try:
            message = self.conn.recv()
        except EOFError:
            self.process.join(timeout=5.0)
            raise EngineError(
                f"shard {self.index} worker died during startup "
                f"(exit code {self.process.exitcode})"
            ) from None
        if message[0] == "fatal":
            raise EngineError(
                f"shard {self.index} worker failed to start:\n{message[1]}"
            )
        if message[0] != "ready":
            raise EngineError(
                f"shard {self.index} worker sent {message[0]!r} before ready"
            )
        # Only the parent ever writes checkpoint records.
        self.store = open_checkpoint_store(
            os.path.join(directory, GAME_SUBDIRECTORY),
            self.geometry,
            algorithm_class(algorithm).layout,
            shard_kwargs.get("fsync_policy", "never"),
        )
        self.pool_handle = pool.register(self.store, slab=self._staging)

    # ------------------------------------------------------------------
    # The ShardHandle surface
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return (self.failed is None and not self._process_closed
                and self.process.is_alive())

    def check(self) -> None:
        if self.failed is not None:
            raise self.failed

    @property
    def ticks_run(self) -> int:
        return int(self.control[F_TICKS_RUN])

    @property
    def bytes_written(self) -> int:
        return int(self.control[F_BYTES_WRITTEN])

    @property
    def committed_cut(self) -> Optional[int]:
        if int(self.control[F_COMMITTED_EPOCH]) == 0:
            return None
        return int(self.control[F_COMMITTED_CUT])

    @property
    def shard(self) -> MMOShard:
        raise EngineError(
            "the process backend's shards live in worker processes; "
            "use checkpoint_ages()/run_ticks() or the on-disk state"
        )

    def start_run(self, count: int, barrier: bool, concurrent: bool) -> None:
        self.check()
        self.control[F_RUN_COUNT] = count
        self.control[F_RUN_BARRIER] = barrier
        self.send()

    def finish_run(self) -> ServerStats:
        outcome = os.read(self.done, 1)
        submitted = int(self.control[F_JOBS_SUBMITTED])
        with self._landing:
            self._landing.wait_for(
                lambda: self._landed >= submitted or self._hung_up
            )
        if outcome == DONE_OK and self._landed >= submitted:
            return read_stats(self.control)
        # A failed run's traceback, or the worker's death, is on the pipe.
        raise EngineError(f"shard {self.index} failed:\n{self.next_ack()[1]}")

    def quiesce(self, timeout: float) -> None:
        try:
            self.send(("quiesce",))
            self.next_ack(timeout=timeout)
        except EngineError:
            pass  # the run that meets the dead worker reports it

    def inject_crash(self, when: str) -> None:
        """``"kill"`` SIGKILLs the worker now; ``"now"``, ``"at_checkpoint"``
        and ``"mid_drain"`` arm the worker's own exit points."""
        if when == "kill":
            self.crash()
        elif when in ("now", "at_checkpoint", "mid_drain"):
            self.send(("crash", when))
        else:
            raise EngineError(f"unknown crash mode {when!r}")

    def crash(self) -> None:
        """SIGKILL the worker (crash semantics)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10.0)

    def close(self) -> None:
        """Ask a live worker to close its shard and exit; reap a dead one."""
        if not self.alive:
            self.crash()
            return
        try:
            self.send(("close",))
            self.next_ack(timeout=30.0)
        except EngineError:
            pass
        self.process.join(timeout=10.0)

    def release(self) -> None:
        for resource in (self.store, self.conn):
            try:
                if resource is not None:
                    resource.close()
            except Exception:
                pass
        if self.pool_handle is not None:
            # The pool is down by now: retiring the handle drops its slab.
            with contextlib.suppress(Exception):
                self.pool_handle.kill(timeout=0.0)
        os.close(self.go)
        os.close(self.done)
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=10.0)
        # Drop every view into the segment (the control row keeps a private
        # copy), so destroy() unmaps it -- and closes its fd -- now, not at
        # garbage collection.
        self.control = self.control.copy()
        self.metrics = self._ring_high_water = None
        self.ring = self.trace_ring = self._staged_ids = self._staging = None
        self.arena.destroy()
        if self.process.exitcode is not None:
            # Closes the process object's sentinel pipe now, not at gc.
            self.process.close()
            self._process_closed = True

    # ------------------------------------------------------------------
    # The pipe
    # ------------------------------------------------------------------

    def send(self, message=None) -> None:
        """Ring ``go`` for a run, or for ``message`` sent on the pipe; a
        dead worker surfaces as this shard's failure."""
        try:
            if message is not None:
                self.conn.send(message)
                self.control[F_PARENT_SENT] += 1
            os.write(self.go, GO_RUN if message is None else GO_MESSAGE)
        except OSError as error:
            raise self._died(cause=error)

    def next_ack(self, timeout: Optional[float] = None):
        """Next non-checkpoint message from the worker.

        Raises this shard's failure if the worker died (now or earlier).
        """
        if self.failed is not None:
            raise self.failed
        try:
            message = self._messages.get(timeout=timeout)
        except queue.Empty:
            raise EngineError(
                f"shard {self.index} worker did not answer within {timeout} s"
            ) from None
        if message[0] == "died":
            raise self._died()
        if message[0] == "fatal":
            self.failed = EngineError(
                f"shard {self.index} worker failed:\n{message[1]}"
            )
            raise self.failed
        return message

    def _died(self, cause: Optional[BaseException] = None) -> EngineError:
        self.process.join(timeout=5.0)
        self.failed = EngineError(
            f"shard {self.index} worker died "
            f"(exit code {self.process.exitcode})"
        )
        if cause is not None:
            self.failed.__cause__ = cause
        return self.failed

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        try:
            while True:
                message = self.conn.recv()
                if message[0] == "checkpoint":
                    self._flush(message)
                    with self._landing:
                        self._landed += 1
                        self._landing.notify_all()
                else:
                    self._messages.put(message)
        except (EOFError, OSError):
            self._messages.put(("died",))
        finally:
            with self._landing:
                self._hung_up = True
                self._landing.notify_all()

    def _flush(self, message) -> None:
        """Land one staged checkpoint through the shared pool."""
        _, count, epoch, cut_tick, backup_index, is_full_dump = message
        # The ids are copied out (they are tiny); the payloads are not --
        # the flush lands slices of the shared staging slot.
        ids = self._staged_ids[:count].copy()
        job = CheckpointJob(
            object_ids=ids,
            epoch=epoch,
            cut_tick=cut_tick,
            source=_StagedSource(ids, self._staging[:count]),
            backup_index=backup_index,
            is_full_dump=is_full_dump,
        )
        row = self.control
        try:
            with get_tracer().span(
                "ckpt_flush", shard=self.index, epoch=epoch, cut=cut_tick
            ):
                self.pool_handle.submit(job)
                if not self.pool_handle.wait_idle(timeout=600.0):
                    raise CheckpointWriterError(
                        f"shard {self.index} checkpoint flush timed out"
                    )
        except BaseException as error:
            self.flush_error = error
            row[F_JOB_STATE] = JOB_ERROR
            return
        committed = self.pool_handle.last_committed
        if committed is None or committed[0] != epoch:
            # Abandoned (fleet crash/kill) rather than committed.
            self.flush_error = CheckpointWriterError(
                f"shard {self.index} checkpoint epoch {epoch} was abandoned"
            )
            row[F_JOB_STATE] = JOB_ERROR
            return
        stats = self.pool_handle.stats()
        row[F_BYTES_WRITTEN] = stats.bytes_written
        row[F_JOBS_COMPLETED] = stats.jobs_completed
        row[F_COMMITTED_CUT] = cut_tick
        row[F_COMMITTED_EPOCH] = epoch
        # State goes idle last: once the worker observes it, every other
        # field is already published (plain stores suffice -- each field has
        # a single writer and the worker only acts on the IDLE transition).
        row[F_JOB_STATE] = JOB_IDLE
