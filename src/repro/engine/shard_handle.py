"""One shard as the fleet sees it: :class:`ShardHandle` and its tick loop.

:class:`~repro.engine.fleet.ShardFleet` drives every shard through a
:class:`ShardHandle` and never asks where the shard runs.  There are two
implementations:

* :class:`ThreadShardHandle` keeps the shard in this process.  It ticks on
  the caller's thread, or on a thread of its own while other shards tick;
* :class:`~repro.engine.shard_worker.ProcessShardHandle` keeps it in a
  forked worker process over shared memory.

Both tick through one :class:`TickLoop` body: drain the command ring once,
hand the batch to the game server, run the tick, publish the tick's
metrics, and wait for the checkpoint barrier when asked.  The ring is a
:class:`~repro.state.ring.SharedCommandRing` on both backends (shared
memory for a worker, private memory for a thread), so ingress rejects at
the same fill level wherever the shard runs.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence

from repro.engine.server import ServerStats
from repro.engine.shard import MMOShard
from repro.errors import EngineError
from repro.obs.metrics import RowMetrics
from repro.obs.telemetry import SHARD_METRICS_LAYOUT
from repro.obs.trace import get_tracer
from repro.state import ring as command_ring
from repro.state.ring import SharedCommandRing


class TickLoop:
    """The per-tick body of every shard, on either backend.

    ``metrics`` is the shard's metrics row.  Two hooks let the owner add
    to the body without forking it: ``after_drain`` runs after a nonempty
    drain and before the tick that would log the batch (the torn-batch
    fault point), ``after_tick`` after every tick's metrics are published.
    """

    def __init__(
        self,
        shard: MMOShard,
        ring: SharedCommandRing,
        metrics: RowMetrics,
    ) -> None:
        self._shard = shard
        self._ring = ring
        self._tick_us = metrics.histogram("tick_us")
        self._drained = metrics.counter("commands_drained")
        self._log_wait = metrics.counter("log_wait_us")
        self._cut_lag = metrics.gauge("cut_lag_ticks")
        self.after_drain: Optional[Callable[[], None]] = None
        self.after_tick: Optional[Callable[[], None]] = None

    def run(self, count: int, barrier: bool) -> None:
        """Run ``count`` ticks; with ``barrier`` each one waits for its
        checkpoint (if any) to become durable before the next starts."""
        shard, tracer = self._shard, get_tracer()
        game = shard.game
        for _ in range(count):
            started = time.monotonic_ns()
            with tracer.span("shard_tick"):
                # One drain per tick: everything pushed before this instant
                # becomes this tick's batch.
                with tracer.span("ring_drain"):
                    batch = self._ring.drain()
                    for payload in batch:
                        game.submit_command(payload)
                if batch and self.after_drain is not None:
                    self.after_drain()
                shard.run_tick()
            self._tick_us.observe((time.monotonic_ns() - started) // 1000)
            if batch:
                self._drained.inc(len(batch))
            self._log_wait.set(int(game.stats.log_wait_seconds * 1e6))
            # Ticks run beyond the newest cut handed to the checkpoint path,
            # durable or not.
            cut = game.last_cut_tick
            ticks = game.ticks_run
            self._cut_lag.set(ticks if cut is None else max(0, ticks - 1 - cut))
            if self.after_tick is not None:
                self.after_tick()
            if barrier:
                shard.wait_checkpoint_idle()


class ShardHandle:
    """One shard as :class:`~repro.engine.fleet.ShardFleet` drives it.

    The fleet pushes commands into ``ring`` (:meth:`submit`) and scrapes
    ``metrics``; everything else is the backend's surface, which both
    subclasses implement alike:

    * ``alive``, ``check()`` (raise the reason the shard cannot serve),
      ``ticks_run``, ``bytes_written``, ``committed_cut`` (cut tick of the
      newest durable checkpoint, or None) and ``shard`` (the in-process
      :class:`~repro.engine.shard.MMOShard`, if there is one);
    * ``start_run(count, barrier, concurrent)`` then ``finish_run()`` (the
      shard's ``ServerStats``, or its failure raised): the fleet starts
      every shard before it finishes any, so shards tick concurrently;
    * ``quiesce(timeout)`` and ``inject_crash(when)``;
    * teardown in two phases: ``crash()`` or ``close()`` on every handle,
      then the fleet retires the writer pool, then ``release()``.
    """

    #: Whether the shards flush through the fleet's writer pool when the
    #: caller sizes one (else each flushes on its own game thread).
    uses_writer_pool = True
    #: Pid of the worker process, or None when the shard is in this one.
    pid: Optional[int] = None
    #: The ring the shard's spans come back through, if it has one.
    trace_ring: Optional[SharedCommandRing] = None

    def __init__(
        self,
        index: int,
        geometry,
        ring: SharedCommandRing,
        metrics: RowMetrics,
    ) -> None:
        self.index = index
        self.geometry = geometry
        self.ring = ring
        #: The shard's metrics row.
        self.metrics = metrics
        self._ring_high_water = metrics.gauge("ring_high_water_bytes")

    def submit(self, payloads: Sequence[bytes]) -> int:
        """Push the prefix of ``payloads`` that fits the ring; returns how
        many landed.  A dead shard's failure is raised instead."""
        self.check()
        accepted = self.ring.push_batch(payloads)
        if accepted:
            self._ring_high_water.max(self.ring.pending_bytes)
        return accepted

    def checkpoint_age(self) -> int:
        """Ticks run beyond the newest durable cut (all of them if none)."""
        committed = self.committed_cut
        baseline = -1 if committed is None else committed
        return max(0, self.ticks_run - 1 - baseline)

    def release(self) -> None:
        """Free what outlives ``crash()``/``close()``; never raises."""


class ThreadShardHandle(ShardHandle):
    """A shard in this process, over a private command ring."""

    def __init__(self, index: int, shard: MMOShard) -> None:
        metrics = RowMetrics(SHARD_METRICS_LAYOUT)
        game = shard.game
        super().__init__(
            index, game.table.geometry,
            SharedCommandRing.private(command_ring.COMMAND_RING_BYTES),
            metrics,
        )
        self._shard = shard
        # The game server outlives a crash, so its counters stay readable.
        self._game = game
        self._loop = TickLoop(shard, self.ring, metrics)
        self._thread: Optional[threading.Thread] = None
        self._outcome = None

    @classmethod
    def open_all(
        cls,
        app_factory,
        directories: Sequence[str],
        algorithm: str,
        seed: int,
        shard_kwargs: dict,
        pool,
    ) -> List["ThreadShardHandle"]:
        """Open one in-process shard per directory; all or nothing."""
        handles: List[ThreadShardHandle] = []
        try:
            for index, directory in enumerate(directories):
                shard = MMOShard(
                    app_factory(index), directory, algorithm=algorithm,
                    seed=seed + index, writer_pool=pool, **shard_kwargs,
                )
                handles.append(cls(index, shard))
        except BaseException:
            for handle in handles:
                handle.close()
            raise
        return handles

    @property
    def alive(self) -> bool:
        return not self._shard.crashed

    def check(self) -> None:
        if self._shard.crashed:
            raise EngineError(
                f"shard {self.index} has crashed; recover it instead"
            )

    @property
    def ticks_run(self) -> int:
        return self._game.ticks_run

    @property
    def bytes_written(self) -> int:
        return self._game.bytes_written

    @property
    def committed_cut(self) -> Optional[int]:
        return self._game.last_committed_checkpoint_tick

    @property
    def shard(self) -> MMOShard:
        return self._shard

    def start_run(self, count: int, barrier: bool, concurrent: bool) -> None:
        self.check()
        self._outcome = None
        if concurrent:
            self._thread = threading.Thread(
                target=self._run, args=(count, barrier),
                name=f"repro-shard-{self.index:02d}",
            )
            self._thread.start()
        else:
            self._run(count, barrier)

    def _run(self, count: int, barrier: bool) -> None:
        try:
            self._loop.run(count, barrier)
            self._outcome = (self._game.stats, None)
        except BaseException as error:
            self._outcome = (None, error)

    def finish_run(self) -> ServerStats:
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        stats, error = self._outcome
        if error is not None:
            raise error
        return stats

    def quiesce(self, timeout: float) -> None:
        self._shard.wait_checkpoint_idle(timeout=timeout)

    def inject_crash(self, when: str) -> None:
        """``"kill"`` and ``"now"`` fail-stop the shard at once;
        ``"mid_drain"`` fail-stops it after its next nonempty drain, before
        the tick that would log the batch.  ``"at_checkpoint"`` exits a
        worker process mid-flush, which only the process backend has."""
        if when in ("kill", "now"):
            self.crash()
        elif when == "mid_drain":
            self._loop.after_drain = self._crash_mid_drain
        elif when == "at_checkpoint":
            raise EngineError(
                "crash mode 'at_checkpoint' needs backend='process'"
            )
        else:
            raise EngineError(f"unknown crash mode {when!r}")

    def _crash_mid_drain(self) -> None:
        self._loop.after_drain = None
        self.crash()
        raise EngineError(f"shard {self.index} crashed after a drain")

    def crash(self) -> None:
        if not self._shard.crashed:
            self._shard.crash()

    def close(self) -> None:
        self._shard.close()
