"""The process-backend shard worker and its parent-side handle.

``ShardFleet(backend="process")`` runs each shard's mutator loop in a
**worker process** (:func:`shard_worker_main`):
:class:`~repro.engine.shard.MMOShard` over a
:class:`~repro.state.shared.SharedGameStateTable`, on its own core, free of
the parent's GIL.  A worker is a pool-less durable server: its shard owns
its files, and its :class:`~repro.engine.writer.InlineWriter` lands each
checkpoint on the worker's game thread at the cut, as on a pool-less thread
shard.  The parent (:class:`ProcessShardHandle`) holds no store and no
writer; it reads the committed cut and the bytes written from the
worker's control row.

Each shard has one shared segment: table, metrics row, command and trace
rings, and an int64 control row.  A run crosses the process boundary as
the control row plus one-byte ``os.pipe`` doorbells (``go`` down, ``done``
up); the rare rest (ready, quiesce, crash, close, failures) goes over a
:func:`multiprocessing.Pipe`.  Each control-row field has a single writer
(aligned int64 stores are atomic on every platform the fork backend runs
on).  Worker death is EOF on ``done`` and on the pipe, that shard's
failure -- never a hang.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import multiprocessing
import os
import queue
import threading
import traceback
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.server import ServerStats
from repro.engine.shard import MMOShard
from repro.engine.shard_handle import ShardHandle, TickLoop
from repro.errors import EngineError
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
F_COMMITTED_CUT = 1    # worker: newest durable cut tick (-1 = none yet)
F_BYTES_WRITTEN = 2    # worker: checkpoint bytes landed
F_RUN_COUNT = 3        # parent: ticks of the run it rings for
F_RUN_BARRIER = 4      # parent: 1 if that run waits out each checkpoint
F_PARENT_SENT = 5      # parent: messages sent on the pipe
F_PARENT_TAKEN = 6     # worker: of those, messages taken off the pipe
F_WORKER_SENT = 7      # worker: messages sent on the pipe
F_STATS = 8            # worker: its ServerStats, one STATS_DTYPE record
#: ServerStats as one record: its fields in order, float64 where the
#: default is a float, else int64.
STATS_DTYPE = np.dtype([
    (field.name, float if isinstance(field.default, float) else np.int64)
    for field in dataclasses.fields(ServerStats)
])
NUM_CONTROL_FIELDS = F_STATS + len(STATS_DTYPE)
#: Doorbell bytes: why ``go`` woke the worker, how its run ended on ``done``.
GO_RUN, GO_MESSAGE, DONE_OK, DONE_FAILED = b"r", b"m", b"k", b"f"

#: Arena slot names of one shard's segment.
TABLE_SLOT = SharedGameStateTable.SLOT
CONTROL_SLOT = "control"
#: Slot-name prefix of the shard's inbound command ring.
COMMAND_RING_PREFIX = "cmd"
#: Slot-name prefix of the shard's outbound span-event ring.
TRACE_RING_PREFIX = "trc"
#: Capacity of the trace ring: a few thousand JSON-encoded spans between
#: parent drains; overflow drops spans, never stalls the tick loop.
TRACE_RING_BYTES = 1 << 18


def shard_arena_slots(geometry, dtype) -> list:
    """Slot layout of one shard's shared segment: table, control, commands,
    metrics, trace.

    The command ring (:data:`~repro.state.ring.COMMAND_RING_BYTES`) is the
    batched ingestion path: the parent pushes client commands, the worker
    drains one batch per tick.  The metrics row and trace ring are the
    observability plane: the worker publishes tick timings into the metrics
    row (the parent scrapes it with zero syscalls) and, when tracing is
    enabled, serializes span events into the trace ring for the parent to
    merge.
    """
    return [
        SharedGameStateTable.slot_spec(geometry, dtype),
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
    the deterministic schedule of the byte-identity tests), publishing the
    committed cut, bytes written and tick count after every tick, then
    store the ``ServerStats`` at ``F_STATS`` and write ``DONE_OK`` to ``done``
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

        shard = MMOShard(
            app, directory, algorithm=algorithm, seed=seed, table=table,
            **shard_kwargs,
        )
        game = shard.game
        loop = TickLoop(
            shard,
            SharedCommandRing(arena, prefix=COMMAND_RING_PREFIX),
            metrics_row,
        )

        def publish() -> None:
            # The commit before the tick count, so a reader never sees a
            # tick without the checkpoint its boundary landed.
            committed = game.last_committed_checkpoint_tick
            control[F_COMMITTED_CUT] = -1 if committed is None else committed
            control[F_BYTES_WRITTEN] = game.bytes_written
            control[F_TICKS_RUN] = game.ticks_run

        def between_ticks() -> None:
            publish()
            while control[F_PARENT_TAKEN] < control[F_PARENT_SENT]:
                control[F_PARENT_TAKEN] += 1
                _worker_control(conn.recv(), shard, loop, send)

        loop.after_tick = between_ticks
        publish()
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


def _worker_control(message, shard, loop, send) -> None:
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
            # The next checkpoint's first write exits: the worker dies with
            # its own flush in flight, the checkpoint uncommitted.
            shard.game.store.write_fault_hook = _crash_now
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


class ProcessShardHandle(ShardHandle):
    """The parent's end of one worker: segment, doorbells, pipe.

    A run rings ``go`` and returns once ``done`` rings back; by then the
    worker has landed every checkpoint the run cut, since it flushes each at
    its cut.  A dispatcher thread is the pipe's only reader: it queues
    every message for whichever call waits on it, and EOF (the worker died)
    as ``("died",)``.
    """

    #: The worker flushes its own checkpoints, so the fleet builds no pool.
    uses_writer_pool = False

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
        self.failed: Optional[EngineError] = None
        self._messages: "queue.Queue" = queue.Queue()
        self._dispatcher = threading.Thread(
            target=self._dispatch,
            name=f"repro-shard-{index:02d}-dispatch",
            daemon=True,
        )

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

        ``pool`` is always None (:attr:`uses_writer_pool`).  Phased for
        fork safety: every segment is created and every worker forked
        *before* any parent-side thread starts (the dispatchers start last,
        after each worker's ``ready`` handshake), so no child can inherit a
        locked thread.  All or nothing.
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
            for handle in handles:
                handle._await_ready()
        except BaseException:
            for handle in handles:
                handle.crash()
                handle.release()
            raise
        for handle in handles:
            handle._dispatcher.start()
        return handles

    def _await_ready(self) -> None:
        """Wait for the worker's ``ready``: its shard is open."""
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
        cut = int(self.control[F_COMMITTED_CUT])
        return None if cut < 0 else cut

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
        if os.read(self.done, 1) == DONE_OK:
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
        with contextlib.suppress(Exception):
            self.conn.close()
        os.close(self.go)
        os.close(self.done)
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=10.0)
        # Drop every view into the segment (the control row keeps a private
        # copy), so destroy() unmaps it -- and closes its fd -- now, not at
        # garbage collection.
        self.control = self.control.copy()
        self.metrics = self._ring_high_water = None
        self.ring = self.trace_ring = None
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
        """Next message from the worker.

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

    def _dispatch(self) -> None:
        """The pipe's only reader: queue each message, then EOF."""
        try:
            while True:
                self._messages.put(self.conn.recv())
        except (EOFError, OSError):
            self._messages.put(("died",))
