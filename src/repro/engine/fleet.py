"""A fleet of MMO shards ticking concurrently under one checkpoint I/O crew.

The paper's deployment unit is the shard: "the game world is partitioned
into mostly-independent areas" each served by its own game server (Section
1).  :class:`ShardFleet` runs ``N`` :class:`~repro.engine.shard.MMOShard`
instances against one root directory, each shard with its own durable state
and deterministic seed.  Checkpoint I/O has one asynchronous shape:
``pool_size=K`` gives the fleet one shared
:class:`~repro.engine.writer_pool.CheckpointWriterPool` that serves every
shard, so it runs ``N`` mutator threads plus ``K`` writer threads
(``O(pool_size)``, not ``O(num_shards)``), each worker flushing the
queued job with the oldest cut.  Without ``pool_size`` the thread backend
flushes each checkpoint on its shard's game thread at the cut.

The thread backend runs the mutators as *threads*, which caps aggregate
throughput at roughly one core (the GIL serializes the tick loops however
many shards run).  ``backend="process"`` breaks that ceiling: each shard's
mutator loop runs in a **worker process** whose
:class:`~repro.state.table.GameStateTable` lives in a shared-memory
:class:`~repro.state.shared.SharedArena`, while the parent keeps the shared
writer pool and lands every checkpoint zero-copy from the worker's staged
shared-memory bytes (see :mod:`repro.engine.shard_worker` for the cut
protocol).  The fleet drives every shard through one
:class:`~repro.engine.shard_handle.ShardHandle` and never asks which backend
it runs: both handle types tick through the same loop body and take
commands through the same ring type, so ``run_ticks`` / ``checkpoint_ages``
/ ``telemetry`` / ``crash`` / ``recover`` behave identically across
backends, worker death surfaces as that shard's failure (never a fleet
hang), and the checkpoint files are byte-identical to the threaded
backend's under a deterministic schedule (``checkpoint_barrier=True``).

:meth:`run_ticks` advances every shard by the same number of ticks, either
on one thread (``parallel=False``, the deterministic baseline) or on a
thread per shard, and reports aggregate ticks/second.  Crash operates
fleet-wide; :meth:`recover` replays every
shard on a recovery thread pool with deterministic, index-ordered result
assembly.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.engine.app import TickApplication
from repro.engine.server import ServerStats
from repro.engine.shard import MMOShard, ShardRecovery
from repro.engine.shard_handle import ShardHandle, ThreadShardHandle
from repro.engine.shard_worker import ProcessShardHandle
from repro.engine.writer_pool import CheckpointWriterPool
from repro.errors import BackpressureError, EngineError
from repro.obs.telemetry import (
    FleetTelemetry,
    PoolTelemetry,
    ShardTelemetry,
    assemble_fleet_telemetry,
)
from repro.obs.trace import drain_ring_events, get_tracer

#: Subdirectory name of shard ``i`` under the fleet root.
SHARD_DIRECTORY_FORMAT = "shard-{index:02d}"

#: The shard handle of each fleet execution backend: ``thread`` runs
#: mutators as threads in this process, ``process`` runs each mutator in a
#: worker process over shared memory (requires the ``fork`` start method,
#: i.e. not Windows).
SHARD_HANDLES = {"thread": ThreadShardHandle, "process": ProcessShardHandle}
FLEET_BACKENDS = tuple(SHARD_HANDLES)


def shard_directory(root: Union[str, os.PathLike], index: int) -> str:
    """Directory of shard ``index`` under the fleet root."""
    return os.path.join(os.fspath(root), SHARD_DIRECTORY_FORMAT.format(index=index))


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


class ShardFleet:
    """Runs N shards of the same game concurrently under one root.

    Every shard sits behind one :class:`~repro.engine.shard_handle.ShardHandle`;
    ``backend`` only picks which handle type opens them.
    """

    def __init__(
        self,
        app_factory: Callable[[int], TickApplication],
        directory: Union[str, os.PathLike],
        num_shards: int,
        algorithm: str = "copy-on-update",
        seed: int = 0,
        pool_size: Optional[int] = None,
        backend: str = "thread",
        **shard_kwargs,
    ) -> None:
        if num_shards <= 0:
            raise EngineError(f"num_shards must be positive, got {num_shards}")
        handle_type = SHARD_HANDLES.get(backend)
        if handle_type is None:
            raise EngineError(
                f"backend must be one of {FLEET_BACKENDS}, got {backend!r}"
            )
        self._directory = os.fspath(directory)
        self._num_shards = num_shards
        self._backend = backend
        if pool_size is None:
            pool_size = handle_type.default_pool_size
        self._pool: Optional[CheckpointWriterPool] = None
        if pool_size is not None:
            self._pool = CheckpointWriterPool(pool_size)
        try:
            self._handles: List[ShardHandle] = handle_type.open_all(
                app_factory,
                [shard_directory(self._directory, index)
                 for index in range(num_shards)],
                algorithm,
                seed,
                shard_kwargs,
                self._pool,
            )
        except BaseException:
            if self._pool is not None:
                self._pool.kill()
            raise
        self._command_capacity = self._handles[0].ring.capacity
        self._crashed = False

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
        return self._handles[0].geometry

    @property
    def command_capacity_bytes(self) -> int:
        """Per-shard command-ingress capacity in ring bytes."""
        return self._command_capacity

    @property
    def shards(self) -> List[MMOShard]:
        """The live shards, in index order (thread backend only)."""
        return [handle.shard for handle in self._handles]

    def _worker_handles(self) -> List[ShardHandle]:
        if any(handle.pid is None for handle in self._handles):
            raise EngineError("the thread backend has no worker processes")
        return self._handles

    @property
    def worker_pids(self) -> List[int]:
        """Pids of the shard worker processes (process backend only)."""
        return [handle.pid for handle in self._worker_handles()]

    @property
    def writer_pool(self) -> Optional[CheckpointWriterPool]:
        """The shared checkpoint writer pool, or None when the shards flush
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
        return [handle.alive for handle in self._worker_handles()]

    def checkpoint_ages(self) -> List[int]:
        """Per-shard checkpoint age, in ticks, at this instant.

        A shard's checkpoint age is the number of ticks it has run beyond
        its newest *durable* checkpoint cut -- exactly the log-replay work
        its recovery would pay if the fleet crashed right now (a shard with
        no durable checkpoint yet is as old as its whole tick count).  This
        is the fleet-level view of the gauge the writer pool tracks per
        handle (``PoolStats.max_checkpoint_age_ticks``); here it is measured
        against the shards' live tick counters, so time a checkpoint spends
        queued *or* in flight counts against the age.  A worker process
        publishes both counters in its shared control row, so the semantics
        match across backends.
        """
        return [handle.checkpoint_age() for handle in self._handles]

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
        number is read straight out of single-writer cells (each handle's
        metrics row, control row or live server counters), so a scrape
        never stalls a tick loop.  ``gateway`` is an optional dict of
        serving counters the front door folds in.
        """
        if self._crashed:
            raise EngineError("fleet has crashed; recover it instead")
        shards: List[ShardTelemetry] = []
        histograms = []
        for handle in self._handles:
            row = handle.metrics
            hist = row.histogram("tick_us").snapshot()
            histograms.append(hist)
            shards.append(ShardTelemetry(
                index=handle.index,
                alive=handle.alive,
                ticks_run=handle.ticks_run,
                tick_p50_us=hist.percentile(0.50),
                tick_p99_us=hist.percentile(0.99),
                tick_mean_us=hist.mean,
                commands_drained=row.value("commands_drained"),
                staging_us=row.value("staging_us"),
                log_wait_us=row.value("log_wait_us"),
                cut_lag_ticks=row.value("cut_lag_ticks"),
                checkpoint_age_ticks=handle.checkpoint_age(),
                bytes_written=handle.bytes_written,
                ring_pending_bytes=handle.ring.pending_bytes,
                ring_capacity_bytes=handle.ring.capacity,
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
        each worker's shared trace ring.  Feed the result to
        :func:`repro.obs.export.write_chrome_trace`."""
        events = get_tracer().drain()
        for handle in self._handles:
            if handle.trace_ring is not None:
                events.extend(drain_ring_events(handle.trace_ring))
        return events

    # ------------------------------------------------------------------
    # Command ingestion
    # ------------------------------------------------------------------

    def _handle(self, index: int) -> ShardHandle:
        if not 0 <= index < self._num_shards:
            raise EngineError(
                f"shard index {index} out of range [0, {self._num_shards})"
            )
        return self._handles[index]

    def submit_commands(self, index: int, payloads: Sequence[bytes]) -> int:
        """Queue client commands for shard ``index``'s next tick.

        Returns how many commands were accepted (a prefix of ``payloads``;
        the bounded ring sheds the rest instead of growing).  The batch goes
        into the shard's command ring in one copy -- shared memory for a
        worker process, private memory for a thread -- and the shard drains
        it as one batch at its next tick boundary.

        A dead shard's failure is raised rather than silently buffering
        commands nobody will ever consume.
        """
        handle = self._handle(index)
        for payload in payloads:
            if not isinstance(payload, bytes):
                raise EngineError(
                    f"commands are raw bytes, got {type(payload).__name__}"
                )
        if self._crashed:
            raise EngineError("fleet has crashed; recover it instead")
        return handle.submit(payloads)

    def submit_command(self, index: int, payload: bytes) -> None:
        """Queue one command, raising a typed error instead of shedding.

        Raises :class:`~repro.errors.BackpressureError` when the shard's
        bounded ingress is full -- the explicit rejection the gateway turns
        into a client-visible REJECT frame.
        """
        if self.submit_commands(index, [payload]) != 1:
            ring = self._handles[index].ring
            raise BackpressureError(
                f"shard {index} command ingress is full "
                f"({ring.pending_bytes}/{ring.capacity} bytes)",
                queue=f"shard-{index:02d}",
                depth=ring.pending_bytes,
                capacity=ring.capacity,
            )

    def pending_commands(self, index: int) -> int:
        """Commands queued for shard ``index`` but not yet drained."""
        return self._handle(index).ring.pending_records

    def dead_shards(self) -> List[int]:
        """Indexes of shards that can no longer serve (worker dead or
        shard crashed)."""
        if self._crashed:
            return list(range(self._num_shards))
        return [handle.index for handle in self._handles if not handle.alive]

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

        With ``parallel=True`` the shards tick concurrently (a thread per
        shard, or every worker process at once); otherwise one after
        another.  The first shard failure is re-raised after every other
        shard has finished its ticks -- one shard failing never aborts or
        hangs the rest.

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
        Each tick first drains the shard's command ring, so commands
        submitted before a tick are applied by it and durably logged with
        it.
        """
        if count < 0:
            raise EngineError(f"count must be non-negative, got {count}")
        errors: List[Optional[BaseException]] = [None] * self._num_shards
        stats: List[Optional[ServerStats]] = [None] * self._num_shards
        concurrent = parallel and self._num_shards > 1

        def start(handle: ShardHandle) -> bool:
            try:
                handle.start_run(count, checkpoint_barrier, concurrent)
                return True
            except Exception as error:
                errors[handle.index] = error
                return False

        def finish(handle: ShardHandle) -> None:
            try:
                stats[handle.index] = handle.finish_run()
            except Exception as error:
                errors[handle.index] = error

        started = time.perf_counter()
        with get_tracer().span("fleet_run_ticks", ticks=count):
            if concurrent:
                for handle in [h for h in self._handles if start(h)]:
                    finish(handle)
            else:
                for handle in self._handles:
                    if start(handle):
                        finish(handle)
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

    # ------------------------------------------------------------------
    # Failure and shutdown
    # ------------------------------------------------------------------

    def quiesce(self, timeout: float = 60.0) -> None:
        """Wait until no shard has a checkpoint write queued or in flight.

        Dead shards are skipped (their failure has already been, or will
        be, surfaced by ``run_ticks``).
        """
        for handle in self._handles:
            if handle.alive:
                handle.quiesce(timeout)

    def crash_worker(self, index: int, when: str = "kill") -> None:
        """Test-only fault injection against one shard.

        * ``"kill"`` -- fail-stop right now (a worker is SIGKILLed, so on
          the process backend this is a crash mid-tick);
        * ``"now"`` -- a worker ``os._exit``\\ s at its next command poll
          (between ticks); an in-process shard fail-stops at once;
        * ``"at_checkpoint"`` -- the worker dies immediately after handing
          its next checkpoint to the parent, so the death is detected while
          the parent's flush is in flight (process backend only);
        * ``"mid_drain"`` -- the shard dies right after its next nonempty
          command-ring drain, *before* the tick that would durably log the
          batch (the torn-batch case the recovery tests exercise).

        The next :meth:`run_ticks` involving the shard reports it as failed;
        the other shards keep running, and :meth:`close`/:meth:`crash` still
        reclaim every shared segment.
        """
        self._handle(index).inject_crash(when)

    def crash(self) -> None:
        """Fail-stop every shard (writers abandoned, files closed).

        Each shard's crash retires its pool handle before closing its
        files, so no pool worker can touch a closed store; the pool's worker
        threads are then torn down.  On the process backend the workers are
        SIGKILLed -- the real thing, not a simulation -- and every shared
        segment is unlinked.
        """
        if self._crashed:
            raise EngineError("fleet has crashed; recover it instead")
        self._crashed = True
        for handle in self._handles:
            handle.crash()
        if self._pool is not None:
            self._pool.kill()
        for handle in self._handles:
            handle.release()

    def close(self) -> None:
        """Orderly shutdown of every shard, then the shared pool.

        Each live worker is asked to close its shard's files and exit; dead
        workers are reaped.  All shared-memory segments are unlinked either
        way -- the leak checks in the tests and CI diff ``/dev/shm`` across
        this call.
        """
        if self._crashed:
            return
        for handle in self._handles:
            handle.close()
        if self._pool is not None:
            self._pool.close(wait=False)
        for handle in self._handles:
            handle.release()

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
    ) -> List[ShardRecovery]:
        """Recover every shard of a crashed fleet, results in index order.

        Each shard recovers by the paper's restore-then-replay, on one
        thread each: restore reads and replays of independent shards
        overlap, which is where recovery time goes at production shard
        counts.

        Assembly is deterministic: the returned list is indexed by shard,
        and each shard's recovery is a pure function of its own directory,
        so thread scheduling cannot change any recovered state.
        """
        if num_shards <= 0:
            raise EngineError(f"num_shards must be positive, got {num_shards}")

        def recover_shard(index: int) -> ShardRecovery:
            return MMOShard.recover(
                app_factory(index),
                shard_directory(directory, index),
                seed=seed + index,
            )

        if num_shards == 1:
            return [recover_shard(0)]
        with ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="repro-fleet-recover"
        ) as executor:
            # Executor.map preserves argument order, so the assembly is
            # index-ordered no matter which shard finishes first.
            return list(executor.map(recover_shard, range(num_shards)))
