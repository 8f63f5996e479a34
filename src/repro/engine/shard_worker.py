"""The process-backend shard worker and its parent-side counterpart.

``ShardFleet(backend="process")`` splits each shard across two processes:

* the **worker process** (:func:`shard_worker_main`) runs the shard's
  mutator loop -- :class:`~repro.engine.shard.MMOShard` over a
  :class:`~repro.state.shared.SharedGameStateTable` -- on its own core,
  free of the parent's GIL;
* the **parent** keeps the shared
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

Control flows over a :func:`multiprocessing.Pipe` (commands down, acks up),
while high-rate progress counters live in a shared int64 control row per
shard (single writer per field: the worker owns the tick/submit counters,
the parent owns the committed/bytes counters; aligned int64 stores are
atomic on every platform the fork backend runs on).  Worker death is
detected as EOF on the pipe and surfaced as that shard's failure -- never a
fleet hang.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import traceback
from typing import List, Optional

import numpy as np

from repro.engine.shard import MMOShard
from repro.engine.writer import CheckpointJob, WriterStats
from repro.errors import CheckpointWriterError, EngineError
from repro.obs.metrics import MetricsRegistry, RowMetrics
from repro.obs.telemetry import (
    SHARD_METRICS_LAYOUT,
    SHARD_METRICS_SLOT,
    shard_metrics_slot_spec,
)
from repro.obs.trace import SharedRingTraceSink, get_tracer
from repro.state.ring import DEFAULT_RING_BYTES, SharedCommandRing, ring_slots
from repro.state.shared import SharedArena, SharedGameStateTable

#: Exit code a worker dies with on an injected crash (tests assert on it).
CRASH_EXIT_CODE = 42

# ----------------------------------------------------------------------
# The shared control row: int64 fields, one row per shard.  Each field has
# exactly one writing side, so plain aligned stores are race-free.
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
NUM_CONTROL_FIELDS = 9

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


def shard_arena_slots(
    geometry, dtype, ring_bytes: int = DEFAULT_RING_BYTES
) -> list:
    """Slot layout of one shard's shared segment: table, staging, commands,
    metrics, trace.

    The staging area is sized for the worst case (a full dump writes every
    object), so any checkpoint's write set fits without reallocation.  The
    command ring (``ring_bytes``) is the batched ingestion path: the parent
    pushes client commands, the worker drains one batch per tick.  The
    metrics row and trace ring are the observability plane: the worker
    publishes tick timings into the metrics row (the parent scrapes it with
    zero syscalls) and, when tracing is enabled, serializes span events into
    the trace ring for the parent to merge.
    """
    return [
        SharedGameStateTable.slot_spec(geometry, dtype),
        (STAGED_IDS_SLOT, (geometry.num_objects,), np.dtype(np.int64)),
        (
            STAGING_SLOT,
            (geometry.num_objects, geometry.cells_per_object),
            np.dtype(dtype),
        ),
        shard_metrics_slot_spec(),
        *ring_slots(ring_bytes, prefix=COMMAND_RING_PREFIX),
        *ring_slots(TRACE_RING_BYTES, prefix=TRACE_RING_PREFIX),
    ]


def control_arena_slots(num_shards: int) -> list:
    """Slot layout of the fleet-wide control segment."""
    return [(CONTROL_SLOT, (num_shards, NUM_CONTROL_FIELDS), np.dtype(np.int64))]


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
    synchronously inside :meth:`submit` -- so the stripe-lock protocol (and
    its per-update cost) is skipped entirely.
    """

    #: No concurrent reads of the table: payloads are captured inside submit.
    concurrent_reader = False

    def __init__(
        self,
        conn,
        control_row: np.ndarray,
        staged_ids: np.ndarray,
        staging: np.ndarray,
        metrics_row: Optional[RowMetrics] = None,
    ) -> None:
        self._conn = conn
        self._control = control_row
        self._staged_ids = staged_ids
        self._staging = staging
        self._staging_us = (
            metrics_row.counter("staging_us")
            if metrics_row is not None
            else None
        )
        self._tracer = get_tracer()
        #: Armed by the ``("crash", "at_checkpoint")`` test command: the
        #: worker dies right after handing a checkpoint to the parent, so
        #: the parent's flush is in flight when the death is detected.
        self.crash_after_submit = False
        #: Armed by ``("crash", "mid_drain")``: the worker dies right after
        #: its next nonempty command-ring drain, before the tick that would
        #: durably log the batch -- the torn-batch fault the recovery tests
        #: exercise.
        self.crash_after_drain = False

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
        staging_started = (
            time.monotonic_ns() if self._staging_us is not None else 0
        )
        with self._tracer.span(
            "ckpt_stage", epoch=int(job.epoch), cut=int(job.cut_tick)
        ):
            self._staged_ids[:count] = job.object_ids
            job.source.read_payloads_into(
                job.object_ids, self._staging[:count]
            )
        if self._staging_us is not None:
            self._staging_us.inc(
                (time.monotonic_ns() - staging_started) // 1000
            )
        row = self._control
        row[F_JOB_EPOCH] = int(job.epoch)
        row[F_JOB_CUT] = int(job.cut_tick)
        row[F_JOBS_SUBMITTED] += 1
        row[F_JOB_STATE] = JOB_IN_FLIGHT
        self._conn.send(
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
    index: int,
    app,
    directory: str,
    algorithm: str,
    seed: int,
    shard_kwargs: dict,
    table_arena: SharedArena,
    control_arena: SharedArena,
    conn,
    publish_metrics: bool = True,
) -> None:
    """Entry point of one shard's worker process (fork start method).

    Protocol (parent -> worker / worker -> parent):

    * ``("run", count, barrier)`` -> ``("done", stats, error_text)`` --
      run ``count`` ticks; with ``barrier`` each tick waits for its
      checkpoint (if any) to become durable before the next (the
      deterministic-schedule mode backing byte-identity tests).  Before
      each tick the worker drains the shard's shared command ring *once*
      and submits the whole batch to the game server: the ring is the
      only way commands reach a worker.  ``stats`` is the live
      ``ServerStats``; the pipe's pickling is the copy.
    * ``("quiesce",)`` -> ``("quiesced", stats)`` -- wait out the in-flight
      checkpoint.
    * ``("crash", when)`` -- test-only fault injection, no ack: ``"now"``
      dies immediately (also honored between ticks mid-run),
      ``"at_checkpoint"`` dies right after the next checkpoint handoff,
      ``"mid_drain"`` dies right after the next nonempty ring drain and
      *before* the tick that would log it (the torn-batch case: drained
      commands are lost, recovery replays only the durable log).
    * ``("close",)`` -> ``("closed",)`` -- orderly shutdown.

    Any unexpected failure is reported as ``("fatal", traceback)`` before
    the process exits; the parent turns EOF on this pipe into a per-shard
    failure.
    """
    shard = None
    try:
        table = SharedGameStateTable(app.geometry, table_arena, dtype=app.dtype)
        control = control_arena.array(CONTROL_SLOT)[index]
        # This worker is the single writer of the tick-loop fields of its
        # shared metrics row; the parent scrapes them without a syscall.
        metrics_row = None
        if publish_metrics:
            metrics_row = MetricsRegistry.from_array(
                SHARD_METRICS_LAYOUT,
                table_arena.array(SHARD_METRICS_SLOT),
            ).row(0)
        # The tracer singleton was inherited through fork: re-stamp the pid
        # and, when enabled, route spans through the shared trace ring so
        # the parent can merge them onto the fleet timeline.
        tracer = get_tracer()
        tracer.pid = os.getpid()
        if tracer.enabled:
            tracer.set_sink(SharedRingTraceSink(
                SharedCommandRing(table_arena, prefix=TRACE_RING_PREFIX)
            ))
        proxy = WorkerCheckpointProxy(
            conn,
            control,
            table_arena.array(STAGED_IDS_SLOT),
            table_arena.array(STAGING_SLOT),
            metrics_row=metrics_row,
        )
        ring = SharedCommandRing(table_arena, prefix=COMMAND_RING_PREFIX)
        shard = MMOShard(
            app,
            directory,
            algorithm=algorithm,
            seed=seed,
            table=table,
            writer=proxy,
            **shard_kwargs,
        )
        if metrics_row is not None:
            tick_hist = metrics_row.histogram("tick_us")
            drained_counter = metrics_row.counter("commands_drained")
            lag_gauge = metrics_row.gauge("cut_lag_ticks")
        else:
            tick_hist = drained_counter = lag_gauge = None
        conn.send(("ready", os.getpid()))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "run":
                count, barrier = message[1], message[2]
                error_text = None
                try:
                    for _ in range(count):
                        while conn.poll(0):
                            _worker_control(conn.recv(), shard, proxy, conn)
                        tick_started = (
                            time.monotonic_ns()
                            if tick_hist is not None
                            else 0
                        )
                        with tracer.span("shard_tick"):
                            # One drain per tick: everything the parent
                            # pushed before this instant becomes this
                            # tick's batch.
                            with tracer.span("ring_drain"):
                                batch = ring.drain()
                                for payload in batch:
                                    shard.game.submit_command(payload)
                            if batch and proxy.crash_after_drain:
                                os._exit(CRASH_EXIT_CODE)
                            shard.run_tick()
                        control[F_TICKS_RUN] = shard.game.ticks_run
                        if tick_hist is not None:
                            tick_hist.observe(
                                (time.monotonic_ns() - tick_started) // 1000
                            )
                            if batch:
                                drained_counter.inc(len(batch))
                            # Ticks run beyond the newest cut handed to
                            # the checkpoint path (its own F_JOB_CUT field
                            # -- a self-read, still single-writer).
                            if int(control[F_JOBS_SUBMITTED]):
                                lag = (
                                    shard.game.ticks_run - 1
                                    - int(control[F_JOB_CUT])
                                )
                            else:
                                lag = shard.game.ticks_run
                            lag_gauge.set(max(0, lag))
                        if barrier:
                            shard.wait_checkpoint_idle()
                except Exception:
                    error_text = traceback.format_exc()
                conn.send(("done", shard.game.stats, error_text))
            elif kind == "quiesce":
                shard.wait_checkpoint_idle()
                conn.send(("quiesced", shard.game.stats))
            elif kind == "crash":
                _worker_control(message, shard, proxy, conn)
            elif kind == "close":
                shard.close()
                conn.send(("closed",))
                return
            else:
                raise EngineError(f"unknown worker command {kind!r}")
    except EOFError:
        return  # parent died; nothing to report to
    except BaseException:
        try:
            conn.send(("fatal", traceback.format_exc()))
        except Exception:
            pass


def _worker_control(message, shard, proxy, conn) -> None:
    """Handle a command that may arrive between ticks mid-run."""
    kind = message[0]
    if kind == "crash":
        when = message[1]
        if when == "now":
            os._exit(CRASH_EXIT_CODE)
        elif when == "at_checkpoint":
            proxy.crash_after_submit = True
        elif when == "mid_drain":
            proxy.crash_after_drain = True
        else:
            raise EngineError(f"unknown crash mode {when!r}")
    elif kind == "close":
        shard.close()
        conn.send(("closed",))
        os._exit(0)
    else:
        raise EngineError(f"unexpected mid-run command {message[0]!r}")


# ======================================================================
# Parent side
# ======================================================================


class _StagedSource:
    """PayloadSource over a shard's shared staging slot (zero-copy).

    ``read_payloads`` hands back memoryviews straight into the shared
    segment: the pool's gathered ``writev`` iovecs point at the staged
    bytes, so the only copy on the whole checkpoint path is the worker's
    single gather at the cut.
    """

    def __init__(self, ids: np.ndarray, payloads: np.ndarray) -> None:
        self._ids = ids
        self._payloads = payloads

    def read_payloads(self, object_ids: np.ndarray):
        start = int(np.searchsorted(self._ids, object_ids[0]))
        stop = start + object_ids.size
        if not np.array_equal(self._ids[start:stop], object_ids):
            raise EngineError(
                "staged checkpoint ids do not match the requested chunk"
            )
        return self._payloads[start:stop].reshape(-1).view(np.uint8).data


class ProcessShardHandle:
    """The parent's end of one worker: pipe, dispatcher, and flush duty.

    A dispatcher thread owns the receiving end of the pipe.  ``checkpoint``
    messages are serviced inline -- build a :class:`CheckpointJob` over the
    staged shared-memory bytes, submit it through this shard's pool handle,
    wait for durability, publish the committed epoch to the control row --
    while every other ack is queued for whichever fleet call is waiting on
    it.  EOF on the pipe (the worker died) is queued as ``("died",)`` so
    waiters fail fast instead of hanging.
    """

    def __init__(
        self,
        index: int,
        process,
        conn,
        table_arena: SharedArena,
        control_row: np.ndarray,
        pool_handle,
    ) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.table_arena = table_arena
        self.control = control_row
        self.pool_handle = pool_handle
        self.failed: Optional[EngineError] = None
        self.flush_error: Optional[BaseException] = None
        self._messages: "queue.Queue" = queue.Queue()
        self._dispatcher = threading.Thread(
            target=self._dispatch,
            name=f"repro-shard-{index:02d}-dispatch",
            daemon=True,
        )
        self._staged_ids = table_arena.array(STAGED_IDS_SLOT)
        self._staging = table_arena.array(STAGING_SLOT)

    def start_dispatcher(self) -> None:
        self._dispatcher.start()

    def send(self, message) -> None:
        """Send a command; a dead worker surfaces as this shard's failure."""
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as error:
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
                else:
                    self._messages.put(message)
        except (EOFError, OSError):
            self._messages.put(("died",))

    def _flush(self, message) -> None:
        """Land one staged checkpoint through the shared pool."""
        _, count, epoch, cut_tick, backup_index, is_full_dump = message
        # The ids are copied out (they are tiny); the payloads are not --
        # the job's source serves memoryviews into the shared staging slot.
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

    # ------------------------------------------------------------------
    # Teardown helpers
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL the worker (crash semantics)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10.0)

    def join_dispatcher(self, timeout: float = 10.0) -> None:
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=timeout)
