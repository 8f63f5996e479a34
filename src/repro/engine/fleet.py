"""A fleet of MMO shards ticking concurrently under one checkpoint I/O crew.

The paper's deployment unit is the shard: "the game world is partitioned
into mostly-independent areas" each served by its own game server (Section
1).  :class:`ShardFleet` runs ``N`` :class:`~repro.engine.shard.MMOShard`
instances against one root directory, each shard with its own durable state
and deterministic seed.  Checkpoint I/O has one asynchronous shape:
``pool_size=K`` gives the fleet one shared
:class:`~repro.engine.writer_pool.CheckpointWriterPool` that serves every
shard, so it runs ``N`` mutator threads plus ``K`` writer threads
(``O(pool_size)``, not ``O(num_shards)``), with batched submission and
oldest-cut-first service.  Without ``pool_size`` the thread backend drains
each checkpoint on its shard's game thread (the deterministic serial
emulation).

The thread backend runs the mutators as *threads*, which caps aggregate
throughput at roughly one core (the GIL serializes the tick loops however
many shards run).  ``backend="process"`` breaks that ceiling: each shard's
mutator loop runs in a **worker process** whose
:class:`~repro.state.table.GameStateTable` lives in a shared-memory
:class:`~repro.state.shared.SharedArena`, while the parent keeps the shared
writer pool and lands every checkpoint zero-copy from the worker's staged
shared-memory bytes (see :mod:`repro.engine.shard_worker` for the cut
protocol).  ``run_ticks`` / ``checkpoint_ages`` / ``crash`` / ``recover``
behave identically across backends, worker death surfaces as that shard's
failure (never a fleet hang), and the checkpoint files are byte-identical
to the threaded backend's under a deterministic schedule
(``checkpoint_barrier=True``).

:meth:`run_ticks` advances every shard by the same number of ticks, either
on one thread (``parallel=False``, the deterministic baseline) or on a
thread per shard, and reports aggregate ticks/second.  Crash operates
fleet-wide; :meth:`recover` replays every
shard either serially or on a recovery thread pool with deterministic,
index-ordered result assembly.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.core.plan import DiskLayout
from repro.core.registry import algorithm_class
from repro.engine.app import TickApplication
from repro.engine.server import ServerStats
from repro.engine.shard import GAME_SUBDIRECTORY, MMOShard, ShardRecovery
from repro.engine.shard_worker import (
    CONTROL_SLOT,
    F_BYTES_WRITTEN,
    F_COMMITTED_CUT,
    F_COMMITTED_EPOCH,
    F_TICKS_RUN,
    TRACE_RING_PREFIX,
    ProcessShardHandle,
    control_arena_slots,
    shard_arena_slots,
    shard_worker_main,
)
from repro.engine.writer_pool import CheckpointWriterPool, release_freed_heap
from repro.errors import BackpressureError, EngineError
from repro.obs.metrics import MetricsRegistry, RowMetrics
from repro.obs.telemetry import (
    SHARD_METRICS_LAYOUT,
    SHARD_METRICS_SLOT,
    FleetTelemetry,
    PoolTelemetry,
    ShardTelemetry,
    assemble_fleet_telemetry,
)
from repro.obs.trace import drain_ring_events, get_tracer
from repro.state.ring import (
    DEFAULT_RING_BYTES,
    SharedCommandRing,
)
from repro.state.shared import SharedArena, reap_stale_segments
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore

#: Subdirectory name of shard ``i`` under the fleet root.
SHARD_DIRECTORY_FORMAT = "shard-{index:02d}"

#: Fleet execution backends: ``thread`` runs mutators as threads in this
#: process, ``process`` runs each mutator in a worker process over shared
#: memory (requires the ``fork`` start method, i.e. not Windows).
FLEET_BACKENDS = ("thread", "process")


def shard_directory(root: Union[str, os.PathLike], index: int) -> str:
    """Directory of shard ``index`` under the fleet root."""
    return os.path.join(os.fspath(root), SHARD_DIRECTORY_FORMAT.format(index=index))


def _open_parent_store(
    game_directory: str,
    geometry,
    algorithm: str,
    sync: bool,
    fsync_policy: Optional[str],
):
    """The parent's own handle on a worker-created checkpoint store.

    Mirrors :class:`~repro.engine.server.DurableGameServer`'s store choice
    for the algorithm; both store types tolerate opening existing files
    (the log store verifies the geometry record, the double backup attaches
    read-write), and only the parent ever writes checkpoint records.
    """
    if algorithm_class(algorithm).layout is DiskLayout.DOUBLE_BACKUP:
        return DoubleBackupStore(
            game_directory, geometry, sync=sync, fsync_policy=fsync_policy
        )
    return CheckpointLogStore(
        game_directory, geometry, sync=sync, fsync_policy=fsync_policy
    )


@dataclass(frozen=True)
class FleetRunReport:
    """Aggregate outcome of one :meth:`ShardFleet.run_ticks` call."""

    num_shards: int
    ticks_per_shard: int
    wall_seconds: float
    #: Sum of ticks executed across all shards divided by wall time.
    ticks_per_second: float
    #: Each shard's lifetime stats, snapshotted after the run.
    shard_stats: List[ServerStats]


@dataclass(frozen=True)
class FleetServeReport:
    """Outcome of one :meth:`ShardFleet.try_run_ticks` call.

    The serving-path variant of :class:`FleetRunReport`: per-shard failures
    are *returned*, not raised, so a gateway can keep ticking survivors
    while one shard is down.  ``shard_stats[i]`` is None exactly when
    ``errors[i]`` is set (or the shard was already dead and skipped).
    """

    num_shards: int
    ticks_per_shard: int
    wall_seconds: float
    ticks_per_second: float
    shard_stats: List[Optional[ServerStats]]
    #: Per-shard failure, or None where the shard completed its ticks.
    errors: List[Optional[BaseException]]

    @property
    def ok(self) -> bool:
        """True when every shard completed its ticks."""
        return all(error is None for error in self.errors)

    @property
    def failed_shards(self) -> List[int]:
        """Indexes of shards that did not complete this call's ticks."""
        return [i for i, error in enumerate(self.errors) if error is not None]


class _ThreadCommandQueue:
    """Bounded per-shard command queue for the thread backend.

    The thread-backend equivalent of the shared-memory ring: producers
    (the gateway's tick driver) push under a lock, the shard's mutator
    thread drains the whole backlog once per tick.  Capacity is accounted
    in ring bytes (header + payload) so both backends reject at the same
    fill level.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._bytes = 0
        self._capacity = int(capacity_bytes)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    def push_batch(self, payloads: Sequence[bytes]) -> int:
        """Append the prefix that fits; returns how many landed."""
        with self._lock:
            accepted = 0
            for payload in payloads:
                need = SharedCommandRing.record_bytes(payload)
                if self._bytes + need > self._capacity:
                    break
                self._bytes += need
                accepted += 1
            self._queue.extend(payloads[:accepted])
            return accepted

    def drain(self) -> List[bytes]:
        with self._lock:
            if not self._queue:
                return []
            batch = list(self._queue)
            self._queue.clear()
            self._bytes = 0
            return batch


class ShardFleet:
    """Runs N shards of the same game concurrently under one root."""

    def __init__(
        self,
        app_factory: Callable[[int], TickApplication],
        directory: Union[str, os.PathLike],
        num_shards: int,
        algorithm: str = "copy-on-update",
        seed: int = 0,
        pool_size: Optional[int] = None,
        pool_max_pending: Optional[int] = None,
        pool_batch_jobs: int = 8,
        backend: str = "thread",
        command_ring_bytes: int = DEFAULT_RING_BYTES,
        metrics: bool = True,
        **shard_kwargs,
    ) -> None:
        if num_shards <= 0:
            raise EngineError(f"num_shards must be positive, got {num_shards}")
        if backend not in FLEET_BACKENDS:
            raise EngineError(
                f"backend must be one of {FLEET_BACKENDS}, got {backend!r}"
            )
        self._directory = os.fspath(directory)
        self._num_shards = num_shards
        self._backend = backend
        self._pool: Optional[CheckpointWriterPool] = None
        self._shards: List[MMOShard] = []
        self._workers: List[ProcessShardHandle] = []
        self._parent_stores: List[object] = []
        self._control: Optional[SharedArena] = None
        self._arenas: List[SharedArena] = []
        self._command_ring_bytes = int(command_ring_bytes)
        self._geometry = None
        #: Per-shard command ingress: shared rings (process backend) or
        #: bounded in-process queues (thread backend), created below.
        self._rings: List[SharedCommandRing] = []
        self._command_queues: List[_ThreadCommandQueue] = []
        #: ``metrics=False`` skips all hot-path publication (the overhead
        #: A/B lever the benchmark pulls); the rows still exist, zeroed.
        self._metrics_enabled = bool(metrics)
        #: One metrics row per shard: views into the shared arenas (process
        #: backend) or rows of a private registry (thread backend).
        self._shard_metric_rows: List[RowMetrics] = []
        #: The parent-owned high-water gauges of the shards' command rings.
        self._ring_hwm_gauges = []
        #: Per-shard trace rings the workers serialize span events into.
        self._trace_rings: List[SharedCommandRing] = []
        if backend == "process" and pool_size is None:
            # The parent always flushes through a shared pool; a fleet that
            # did not ask for one gets a small default crew.
            pool_size = 2
        if pool_size is not None:
            self._pool = CheckpointWriterPool(
                pool_size,
                max_pending=pool_max_pending,
                batch_jobs=pool_batch_jobs,
            )
        if backend == "process":
            try:
                self._start_workers(
                    app_factory, algorithm, seed, dict(shard_kwargs)
                )
            except BaseException:
                self._teardown_process_backend(kill=True)
                raise
            self._crashed = False
            return
        if self._pool is not None:
            shard_kwargs = dict(shard_kwargs)
            shard_kwargs["writer_pool"] = self._pool
        try:
            for index in range(num_shards):
                if self._pool is not None:
                    shard_kwargs["writer_name"] = f"shard-{index:02d}"
                app = app_factory(index)
                if self._geometry is None:
                    self._geometry = app.geometry
                self._shards.append(
                    MMOShard(
                        app,
                        shard_directory(self._directory, index),
                        algorithm=algorithm,
                        seed=seed + index,
                        **shard_kwargs,
                    )
                )
                self._command_queues.append(
                    _ThreadCommandQueue(self._command_ring_bytes)
                )
        except BaseException:
            for shard in self._shards:
                shard.close()
            if self._pool is not None:
                self._pool.kill()
            raise
        # The thread backend mirrors the process backend's shared metrics
        # layout in a private registry, so telemetry() is backend-uniform.
        registry = MetricsRegistry(SHARD_METRICS_LAYOUT, rows=num_shards)
        self._shard_metric_rows = [
            registry.row(index) for index in range(num_shards)
        ]
        self._ring_hwm_gauges = [
            row.gauge("ring_high_water_bytes")
            for row in self._shard_metric_rows
        ]
        self._crashed = False

    # ------------------------------------------------------------------
    # Process-backend bring-up and teardown
    # ------------------------------------------------------------------

    def _start_workers(
        self,
        app_factory: Callable[[int], TickApplication],
        algorithm: str,
        seed: int,
        shard_kwargs: dict,
    ) -> None:
        """Fork one worker per shard over freshly allocated shared arenas.

        Phased for fork safety: every segment is created and every worker
        forked *before* any parent-side thread starts (the pool's writer
        threads spin up lazily on the first submit; the per-shard
        dispatchers start last), so no child can inherit a locked thread.
        The parent opens its own store handles only after each worker's
        ``ready`` handshake confirms the files exist.
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
        shard_kwargs.pop("writer_pool", None)
        shard_kwargs.pop("writer_name", None)
        sync = shard_kwargs.get("sync", False)
        fsync_policy = shard_kwargs.get("fsync_policy")
        self._control = SharedArena.create(
            control_arena_slots(self._num_shards)
        )
        control = self._control.array(CONTROL_SLOT)
        forked = []  # (index, app, process, parent_conn, arena)
        # Freed but resident heap would be copied into every worker.
        release_freed_heap()
        for index in range(self._num_shards):
            app = app_factory(index)
            if self._geometry is None:
                self._geometry = app.geometry
            arena = SharedArena.create(
                shard_arena_slots(
                    app.geometry, app.dtype,
                    ring_bytes=self._command_ring_bytes,
                )
            )
            self._arenas.append(arena)
            self._rings.append(SharedCommandRing(arena))
            self._trace_rings.append(
                SharedCommandRing(arena, prefix=TRACE_RING_PREFIX)
            )
            row = MetricsRegistry.from_array(
                SHARD_METRICS_LAYOUT, arena.array(SHARD_METRICS_SLOT)
            ).row(0)
            self._shard_metric_rows.append(row)
            self._ring_hwm_gauges.append(row.gauge("ring_high_water_bytes"))
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=shard_worker_main,
                args=(
                    index,
                    app,
                    shard_directory(self._directory, index),
                    algorithm,
                    seed + index,
                    shard_kwargs,
                    arena,
                    self._control,
                    child_conn,
                    self._metrics_enabled,
                ),
                name=f"repro-shard-{index:02d}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            forked.append((index, app, process, parent_conn, arena))
        try:
            for index, app, process, parent_conn, arena in forked:
                try:
                    message = parent_conn.recv()
                except EOFError:
                    process.join(timeout=5.0)
                    raise EngineError(
                        f"shard {index} worker died during startup "
                        f"(exit code {process.exitcode})"
                    ) from None
                if message[0] == "fatal":
                    raise EngineError(
                        f"shard {index} worker failed to start:\n{message[1]}"
                    )
                if message[0] != "ready":
                    raise EngineError(
                        f"shard {index} worker sent {message[0]!r} before "
                        "ready"
                    )
                # The worker has created the store files; open our own
                # handles on them (only the parent writes checkpoint
                # records).
                store = _open_parent_store(
                    os.path.join(
                        shard_directory(self._directory, index),
                        GAME_SUBDIRECTORY,
                    ),
                    app.geometry,
                    algorithm,
                    sync,
                    fsync_policy,
                )
                self._parent_stores.append(store)
                handle = ProcessShardHandle(
                    index,
                    process,
                    parent_conn,
                    arena,
                    control[index],
                    self._pool.register(store, name=f"shard-{index:02d}"),
                )
                self._workers.append(handle)
        except BaseException:
            # Kill every forked worker, including those not yet wrapped in
            # a handle; the caller's teardown releases arenas and stores.
            for _, _, process, _, _ in forked:
                try:
                    if process.is_alive():
                        process.kill()
                    process.join(timeout=5.0)
                except Exception:
                    pass
            raise
        for handle in self._workers:
            handle.start_dispatcher()

    def _teardown_process_backend(self, kill: bool) -> None:
        """Release every process-backend resource; never raises."""
        for handle in self._workers:
            if kill:
                try:
                    handle.kill()
                except Exception:
                    pass
        if self._pool is not None:
            try:
                self._pool.kill() if kill else self._pool.close(wait=False)
            except Exception:
                pass
        for store in self._parent_stores:
            try:
                store.close()
            except Exception:
                pass
        for handle in self._workers:
            try:
                handle.conn.close()
            except Exception:
                pass
            handle.join_dispatcher()
        for arena in self._arenas:
            arena.destroy()
        self._arenas = []
        if self._control is not None:
            self._control.destroy()
            self._control = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def directory(self) -> str:
        """Root directory holding one subdirectory per shard."""
        return self._directory

    @property
    def num_shards(self) -> int:
        """Number of shards in the fleet."""
        return self._num_shards

    @property
    def backend(self) -> str:
        """Execution backend: ``thread`` or ``process``."""
        return self._backend

    @property
    def geometry(self):
        """World geometry every shard runs (shards are homogeneous)."""
        return self._geometry

    @property
    def command_capacity_bytes(self) -> int:
        """Per-shard command-ingress capacity in ring bytes."""
        return self._command_ring_bytes

    @property
    def shards(self) -> List[MMOShard]:
        """The live shards, in index order (thread backend only)."""
        if self._backend == "process":
            raise EngineError(
                "the process backend's shards live in worker processes; "
                "use checkpoint_ages()/run_ticks() or the on-disk state"
            )
        return list(self._shards)

    @property
    def worker_pids(self) -> List[int]:
        """Pids of the shard worker processes (process backend only)."""
        if self._backend != "process":
            raise EngineError("worker_pids is a process-backend property")
        return [handle.process.pid for handle in self._workers]

    @property
    def writer_pool(self) -> Optional[CheckpointWriterPool]:
        """The shared checkpoint writer pool, or None when the shards drain
        their checkpoints on their own game threads."""
        return self._pool

    @property
    def writer_threads(self) -> int:
        """Total checkpoint writer threads the fleet runs: the pool's worker
        count, or 0 without a pool."""
        return self._pool.num_workers if self._pool is not None else 0

    @property
    def alive_workers(self) -> List[bool]:
        """Liveness of each shard's worker process (process backend only)."""
        if self._backend != "process":
            raise EngineError("alive_workers is a process-backend property")
        return [
            handle.failed is None and handle.process.is_alive()
            for handle in self._workers
        ]

    def checkpoint_ages(self) -> List[int]:
        """Per-shard checkpoint age, in ticks, at this instant.

        A shard's checkpoint age is the number of ticks it has run beyond
        its newest *durable* checkpoint cut -- exactly the log-replay work
        its recovery would pay if the fleet crashed right now (a shard with
        no durable checkpoint yet is as old as its whole tick count).  This
        is the fleet-level view of the gauge the writer pool tracks per
        handle (``PoolStats.max_checkpoint_age_ticks``); here it is measured
        against the shards' live tick counters, so time a checkpoint spends
        queued *or* in flight counts against the age.

        On the process backend the same quantities come out of the shared
        control region -- the workers publish their tick counters, the
        parent its committed cuts -- so the semantics match exactly.
        """
        if self._backend == "process":
            control = self._control.array(CONTROL_SLOT)
            ages = []
            for index in range(self._num_shards):
                row = control[index]
                baseline = (
                    int(row[F_COMMITTED_CUT])
                    if int(row[F_COMMITTED_EPOCH]) > 0
                    else -1
                )
                ages.append(max(0, int(row[F_TICKS_RUN]) - 1 - baseline))
            return ages
        ages = []
        for shard in self._shards:
            server = shard.game
            committed = server.last_committed_checkpoint_tick
            baseline = -1 if committed is None else committed
            ages.append(max(0, server.ticks_run - 1 - baseline))
        return ages

    @property
    def max_checkpoint_age(self) -> int:
        """The stalest shard's checkpoint age in ticks (the quantity a
        worst-case recovery-time bound is built from)."""
        return max(self.checkpoint_ages(), default=0)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def telemetry(self, gateway=None) -> FleetTelemetry:
        """One merged :class:`~repro.obs.telemetry.FleetTelemetry` snapshot.

        Scraping is lock-free and O(shards * buckets): every per-shard
        number is read straight out of single-writer cells (the shared
        metrics rows and control rows on the process backend, the private
        registry and live shard objects on the thread backend), so a scrape
        never stalls a tick loop.  ``gateway`` is an optional dict of
        serving counters the front door folds in.
        """
        if self._crashed:
            raise EngineError("fleet has crashed; recover it instead")
        ages = self.checkpoint_ages()
        process = self._backend == "process"
        control = (
            self._control.array(CONTROL_SLOT) if process else None
        )
        shards: List[ShardTelemetry] = []
        histograms = []
        for index in range(self._num_shards):
            row = self._shard_metric_rows[index]
            hist = row.histogram("tick_us").snapshot()
            histograms.append(hist)
            if process:
                handle = self._workers[index]
                alive = (
                    handle.failed is None and handle.process.is_alive()
                )
                ticks_run = int(control[index][F_TICKS_RUN])
                bytes_written = int(control[index][F_BYTES_WRITTEN])
                ring = self._rings[index]
                pending, capacity = ring.pending_bytes, ring.capacity
            else:
                shard = self._shards[index]
                alive = not shard.crashed
                ticks_run = shard.game.ticks_run
                bytes_written = shard.game.bytes_written
                queue = self._command_queues[index]
                pending, capacity = queue.pending_bytes, queue.capacity
            shards.append(ShardTelemetry(
                index=index,
                alive=alive,
                ticks_run=ticks_run,
                tick_p50_us=hist.percentile(0.50),
                tick_p99_us=hist.percentile(0.99),
                tick_mean_us=hist.mean,
                commands_drained=row.value("commands_drained"),
                staging_us=row.value("staging_us"),
                cut_lag_ticks=row.value("cut_lag_ticks"),
                checkpoint_age_ticks=ages[index],
                bytes_written=bytes_written,
                ring_pending_bytes=pending,
                ring_capacity_bytes=capacity,
                ring_high_water_bytes=row.value("ring_high_water_bytes"),
            ))
        pool = None
        if self._pool is not None:
            pool = PoolTelemetry.from_stats(
                self._pool.stats(), self._pool.num_workers
            )
        return assemble_fleet_telemetry(
            self._backend, shards, histograms, pool=pool, gateway=gateway
        )

    def trace_events(self) -> List[dict]:
        """Drain every buffered span event: the parent tracer's buffer plus
        each worker's shared trace ring (process backend).  Feed the result
        to :func:`repro.obs.export.write_chrome_trace`."""
        events = get_tracer().drain()
        for ring in self._trace_rings:
            events.extend(drain_ring_events(ring))
        return events

    def trace_process_names(self) -> dict:
        """Pid -> display name for the exported trace's process tracks."""
        names = {os.getpid(): "fleet parent"}
        if self._backend == "process":
            for handle in self._workers:
                if handle.process.pid is not None:
                    names[handle.process.pid] = (
                        f"shard-{handle.index:02d} worker"
                    )
        return names

    # ------------------------------------------------------------------
    # Command ingestion
    # ------------------------------------------------------------------

    def submit_commands(self, index: int, payloads: Sequence[bytes]) -> int:
        """Queue client commands for shard ``index``'s next tick.

        Returns how many commands were accepted (a prefix of ``payloads``;
        the bounded ingress sheds the rest instead of growing).  On the
        process backend the batch goes into the shard's shared command ring
        in one copy; on the thread backend into its bounded in-process
        queue.  Either way the shard drains it as one batch at its next
        tick boundary.

        A dead shard's failure is raised rather than silently buffering
        commands nobody will ever consume.
        """
        if not 0 <= index < self._num_shards:
            raise EngineError(
                f"shard index {index} out of range [0, {self._num_shards})"
            )
        for payload in payloads:
            if not isinstance(payload, bytes):
                raise EngineError(
                    f"commands are raw bytes, got {type(payload).__name__}"
                )
        if self._backend == "thread":
            if self._crashed or self._shards[index].crashed:
                raise EngineError(
                    f"shard {index} has crashed; recover it instead"
                )
            ingress = self._command_queues[index]
        else:
            handle = self._workers[index]
            if handle.failed is not None:
                raise handle.failed
            ingress = self._rings[index]
        accepted = ingress.push_batch(payloads)
        if self._metrics_enabled and accepted:
            self._ring_hwm_gauges[index].max(ingress.pending_bytes)
        return accepted

    def submit_command(self, index: int, payload: bytes) -> None:
        """Queue one command, raising a typed error instead of shedding.

        Raises :class:`~repro.errors.BackpressureError` when the shard's
        bounded ingress is full -- the explicit rejection the gateway turns
        into a client-visible REJECT frame.
        """
        if self.submit_commands(index, [payload]) != 1:
            ring_or_queue = (
                self._rings[index]
                if self._backend == "process"
                else self._command_queues[index]
            )
            raise BackpressureError(
                f"shard {index} command ingress is full "
                f"({ring_or_queue.pending_bytes}/{ring_or_queue.capacity} "
                "bytes)",
                queue=f"shard-{index:02d}",
                depth=ring_or_queue.pending_bytes,
                capacity=ring_or_queue.capacity,
            )

    def pending_commands(self, index: int) -> int:
        """Commands queued for shard ``index`` but not yet drained.

        Process backend: records sitting in the shared ring; thread
        backend: the bounded queue's depth in bytes is not meaningful
        here, so the entry count is reported for both.
        """
        if not 0 <= index < self._num_shards:
            raise EngineError(
                f"shard index {index} out of range [0, {self._num_shards})"
            )
        if self._backend == "process":
            return self._rings[index].pending_records
        return len(self._command_queues[index]._queue)

    def dead_shards(self) -> List[int]:
        """Indexes of shards that can no longer serve (worker dead or
        shard crashed)."""
        if self._crashed:
            return list(range(self._num_shards))
        if self._backend == "process":
            return [
                handle.index
                for handle in self._workers
                if handle.failed is not None or not handle.process.is_alive()
            ]
        return [
            index for index, shard in enumerate(self._shards) if shard.crashed
        ]

    # ------------------------------------------------------------------
    # Driving the fleet
    # ------------------------------------------------------------------

    def run_ticks(
        self,
        count: int,
        parallel: bool = True,
        checkpoint_barrier: bool = False,
    ) -> FleetRunReport:
        """Advance every shard by ``count`` ticks.

        With ``parallel=True`` each shard runs on its own thread (thread
        backend) or its worker process proceeds concurrently (process
        backend); otherwise the shards run one after another.  The first
        shard failure is re-raised after every other shard has finished its
        ticks -- one shard failing never aborts or hangs the rest.

        ``checkpoint_barrier=True`` makes every shard wait for its in-flight
        checkpoint to become durable before running the next tick.  That
        sacrifices tick/flush overlap, but makes the checkpoint *schedule* a
        pure function of the tick number -- so two fleets with the same
        seeds produce byte-identical checkpoint files on any backend, which
        is how the backend-equivalence tests pin the process backend to the
        threaded baseline.
        """
        outcome = self.try_run_ticks(count, parallel, checkpoint_barrier)
        for error in outcome.errors:
            if error is not None:
                raise error
        return FleetRunReport(
            num_shards=outcome.num_shards,
            ticks_per_shard=outcome.ticks_per_shard,
            wall_seconds=outcome.wall_seconds,
            ticks_per_second=outcome.ticks_per_second,
            shard_stats=list(outcome.shard_stats),
        )

    def try_run_ticks(
        self,
        count: int,
        parallel: bool = True,
        checkpoint_barrier: bool = False,
    ) -> FleetServeReport:
        """Advance every *live* shard by ``count`` ticks; never raises on a
        shard failure.

        The serving-path driver: per-shard failures (including shards that
        were already dead when the call started) come back in
        ``errors[index]`` while every surviving shard completes its ticks.
        Each tick first drains the shard's command ingress -- the shared
        ring (process backend) or the bounded queue (thread backend) -- so
        commands submitted before a tick are applied by it and durably
        logged with it.
        """
        if count < 0:
            raise EngineError(f"count must be non-negative, got {count}")
        started = time.perf_counter()
        with get_tracer().span("fleet_run_ticks", ticks=count):
            if self._backend == "process":
                stats, errors = self._run_ticks_process(count, parallel,
                                                        checkpoint_barrier)
            else:
                stats, errors = self._run_ticks_thread(count, parallel,
                                                       checkpoint_barrier)
        wall = time.perf_counter() - started
        completed = sum(1 for error in errors if error is None)
        total_ticks = count * completed
        return FleetServeReport(
            num_shards=self._num_shards,
            ticks_per_shard=count,
            wall_seconds=wall,
            ticks_per_second=total_ticks / wall if wall > 0 else 0.0,
            shard_stats=stats,
            errors=errors,
        )

    def _run_ticks_thread(self, count: int, parallel: bool,
                          checkpoint_barrier: bool):
        errors: List[Optional[BaseException]] = [None] * self._num_shards
        stats: List[Optional[ServerStats]] = [None] * self._num_shards

        tracer = get_tracer()

        def drive(index: int, shard: MMOShard) -> None:
            queue = self._command_queues[index]
            if self._metrics_enabled:
                row = self._shard_metric_rows[index]
                tick_hist = row.histogram("tick_us")
                drained_counter = row.counter("commands_drained")
                lag_gauge = row.gauge("cut_lag_ticks")
            else:
                tick_hist = drained_counter = lag_gauge = None
            try:
                for _ in range(count):
                    tick_started = (
                        time.monotonic_ns() if tick_hist is not None else 0
                    )
                    with tracer.span("shard_tick"):
                        with tracer.span("ring_drain"):
                            batch = queue.drain()
                            for payload in batch:
                                shard.game.submit_command(payload)
                        shard.run_tick()
                    if tick_hist is not None:
                        tick_hist.observe(
                            (time.monotonic_ns() - tick_started) // 1000
                        )
                        if batch:
                            drained_counter.inc(len(batch))
                        committed = shard.game.last_committed_checkpoint_tick
                        baseline = -1 if committed is None else committed
                        lag_gauge.set(
                            max(0, shard.game.ticks_run - 1 - baseline)
                        )
                    if checkpoint_barrier:
                        shard.wait_checkpoint_idle()
                stats[index] = shard.game.stats
            except BaseException as error:
                errors[index] = error

        if parallel and self._num_shards > 1:
            threads = [
                threading.Thread(
                    target=drive,
                    args=(index, shard),
                    name=f"repro-shard-{index:02d}",
                )
                for index, shard in enumerate(self._shards)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            for index, shard in enumerate(self._shards):
                drive(index, shard)
        return stats, errors

    def _run_ticks_process(self, count: int, parallel: bool,
                           checkpoint_barrier: bool):
        """Drive every live worker; collect per-shard outcomes."""
        errors: List[Optional[BaseException]] = [None] * self._num_shards
        stats: List[Optional[ServerStats]] = [None] * self._num_shards

        def finish(handle: ProcessShardHandle) -> None:
            message = handle.next_ack()
            shard_stats, error_text = message[1], message[2]
            stats[handle.index] = shard_stats
            if error_text is not None:
                raise EngineError(
                    f"shard {handle.index} failed:\n{error_text}"
                )

        def start(handle: ProcessShardHandle) -> bool:
            if handle.failed is not None:
                errors[handle.index] = handle.failed
                return False
            try:
                handle.send(("run", count, checkpoint_barrier))
                return True
            except EngineError as error:
                errors[handle.index] = error
                return False

        if parallel:
            pending = [h for h in self._workers if start(h)]
            for handle in pending:
                try:
                    finish(handle)
                except EngineError as error:
                    errors[handle.index] = error
        else:
            for handle in self._workers:
                if not start(handle):
                    continue
                try:
                    finish(handle)
                except EngineError as error:
                    errors[handle.index] = error
        return stats, errors

    # ------------------------------------------------------------------
    # Failure and shutdown
    # ------------------------------------------------------------------

    def quiesce(self, timeout: float = 60.0) -> None:
        """Wait until no shard has a checkpoint write queued or in flight.

        Dead workers are skipped (their failure has already been, or will
        be, surfaced by ``run_ticks``).
        """
        if self._backend == "process":
            pending = []
            for handle in self._workers:
                if handle.failed is not None:
                    continue
                try:
                    handle.send(("quiesce",))
                    pending.append(handle)
                except EngineError:
                    pass
            for handle in pending:
                try:
                    handle.next_ack(timeout=timeout)
                except EngineError:
                    pass
            return
        for shard in self._shards:
            shard.wait_checkpoint_idle(timeout=timeout)

    def crash_worker(self, index: int, when: str = "kill") -> None:
        """Test-only fault injection against one shard's worker process.

        * ``"kill"`` -- SIGKILL right now (a crash mid-tick);
        * ``"now"`` -- the worker ``os._exit``\\ s at its next command poll
          (between ticks);
        * ``"at_checkpoint"`` -- the worker dies immediately after handing
          its next checkpoint to the parent, so the death is detected while
          the parent's flush is in flight;
        * ``"mid_drain"`` -- the worker dies right after its next nonempty
          command-ring drain, *before* the tick that would durably log the
          batch (the torn-batch case the recovery tests exercise).

        The next :meth:`run_ticks` involving the shard reports it as failed;
        the other shards keep running, and :meth:`close`/:meth:`crash` still
        reclaim every shared segment.
        """
        if self._backend != "process":
            raise EngineError("crash_worker needs backend='process'")
        handle = self._workers[index]
        if when == "kill":
            handle.kill()
        elif when in ("now", "at_checkpoint", "mid_drain"):
            handle.send(("crash", when))
        else:
            raise EngineError(f"unknown crash mode {when!r}")

    def crash(self) -> None:
        """Fail-stop every shard (writers abandoned, files closed).

        Each shard's crash retires its pool handle (or kills its private
        writer) before closing its files, so no worker can touch a closed
        store; the pool's worker threads are then torn down.  On the process
        backend the workers are SIGKILLed -- the real thing, not a
        simulation -- and every shared segment is unlinked.
        """
        if self._crashed:
            raise EngineError("fleet has crashed; recover it instead")
        self._crashed = True
        if self._backend == "process":
            self._teardown_process_backend(kill=True)
            return
        for shard in self._shards:
            shard.crash()
        if self._pool is not None:
            self._pool.kill()

    def close(self) -> None:
        """Orderly shutdown of every shard, then the shared pool.

        Process backend: each live worker is asked to close its shard's
        files and exit; dead workers are reaped.  All shared-memory
        segments are unlinked either way -- the leak checks in the tests
        and CI diff ``/dev/shm`` across this call.
        """
        if self._crashed:
            return
        if self._backend == "process":
            for handle in self._workers:
                if handle.failed is not None or not handle.process.is_alive():
                    handle.kill()
                    continue
                try:
                    handle.send(("close",))
                    handle.next_ack(timeout=30.0)
                except EngineError:
                    pass
                handle.process.join(timeout=10.0)
            self._teardown_process_backend(kill=False)
            return
        for shard in self._shards:
            shard.close()
        if self._pool is not None:
            self._pool.close(wait=False)

    def __enter__(self) -> "ShardFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def recover(
        cls,
        app_factory: Callable[[int], TickApplication],
        directory: Union[str, os.PathLike],
        num_shards: int,
        seed: int = 0,
        parallel: bool = True,
        max_workers: Optional[int] = None,
    ) -> List[ShardRecovery]:
        """Recover every shard of a crashed fleet, results in index order.

        Each shard recovers by the paper's restore-then-replay.  With
        ``parallel`` (the default) shards recover on a thread pool of
        ``max_workers`` threads (default: one per shard); restore reads and
        replays of independent shards overlap, which is where recovery time
        goes at production shard counts.  Without it they recover one after
        another.

        Assembly is deterministic either way: the returned list is indexed
        by shard, and each shard's recovery is a pure function of its own
        directory, so thread scheduling cannot change any recovered state.
        """
        if num_shards <= 0:
            raise EngineError(f"num_shards must be positive, got {num_shards}")

        def recover_shard(index: int) -> ShardRecovery:
            return MMOShard.recover(
                app_factory(index),
                shard_directory(directory, index),
                seed=seed + index,
            )

        if not parallel or num_shards == 1:
            return [recover_shard(index) for index in range(num_shards)]
        workers = max_workers if max_workers is not None else num_shards
        workers = max(1, min(workers, num_shards))
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-fleet-recover"
        ) as executor:
            # Executor.map preserves argument order, so the assembly is
            # index-ordered no matter which shard finishes first.
            return list(executor.map(recover_shard, range(num_shards)))
