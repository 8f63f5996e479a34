"""Result types produced by the checkpoint simulator.

A :class:`SimulationResult` holds everything the paper's figures plot:

* per-tick series -- tick length and overhead with its breakdown into bit
  tests, locks, copy-on-update copies, and the synchronous checkpoint pause
  (Figures 2(a), 3, 4(a), 5(a));
* per-checkpoint records -- synchronous pause, objects written, asynchronous
  write duration (Figures 2(b), 4(b), 5(b));
* the recovery estimate (Figures 2(c), 4(c), 5(c)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import SimulationConfig
from repro.core.plan import DiskLayout
from repro.errors import SimulationError
from repro.simulation.recovery import RecoveryEstimate


@dataclass
class CheckpointRecord:
    """One checkpoint taken during a simulated run."""

    index: int
    start_tick: int
    start_time: float
    sync_pause: float
    write_count: int
    async_duration: float
    layout: DiskLayout
    is_full_dump: bool = False
    #: Tick at whose boundary the framework observed completion (None if the
    #: run ended while this checkpoint was still in flight).
    finished_tick: Optional[int] = None

    @property
    def duration(self) -> float:
        """Time to checkpoint: synchronous pause plus asynchronous write."""
        return self.sync_pause + self.async_duration

    @property
    def completed(self) -> bool:
        """True if the framework observed this checkpoint finishing."""
        return self.finished_tick is not None


@dataclass
class SimulationResult:
    """Everything measured during one simulated run of one algorithm."""

    algorithm_key: str
    algorithm_name: str
    config: SimulationConfig
    #: Nominal tick length (1 / Ftick), for convenience.
    base_tick_length: float
    #: Per-tick updates processed (with duplicates).
    tick_updates: np.ndarray
    #: Per-tick total overhead added by recovery (seconds).
    tick_overhead: np.ndarray
    #: Per-tick total length: base + overhead (seconds).
    tick_length: np.ndarray
    #: Overhead breakdown (seconds per tick).
    bit_time: np.ndarray
    lock_time: np.ndarray
    copy_time: np.ndarray
    pause_time: np.ndarray
    #: All checkpoints started during the run, in order.
    checkpoints: List[CheckpointRecord] = field(default_factory=list)
    #: Recovery estimate computed from the run (Section 4.2 formulas).
    recovery: Optional[RecoveryEstimate] = None

    def __post_init__(self) -> None:
        lengths = {
            "tick_updates": self.tick_updates.size,
            "tick_overhead": self.tick_overhead.size,
            "tick_length": self.tick_length.size,
            "bit_time": self.bit_time.size,
            "lock_time": self.lock_time.size,
            "copy_time": self.copy_time.size,
            "pause_time": self.pause_time.size,
        }
        if len(set(lengths.values())) != 1:
            raise SimulationError(f"per-tick series have differing lengths: {lengths}")

    @property
    def num_ticks(self) -> int:
        """Number of simulated ticks."""
        return int(self.tick_length.size)

    def _measured_slice(self) -> slice:
        """Ticks included in aggregates (warmup excluded)."""
        warmup = min(self.config.warmup_ticks, self.num_ticks)
        return slice(warmup, self.num_ticks)

    # ------------------------------------------------------------------
    # Figure 2(a) / 4(a) / 5(a): overhead time
    # ------------------------------------------------------------------

    @property
    def avg_overhead(self) -> float:
        """Average per-tick overhead in seconds (warmup excluded)."""
        window = self.tick_overhead[self._measured_slice()]
        return float(window.mean()) if window.size else 0.0

    @property
    def max_overhead(self) -> float:
        """Largest single-tick overhead -- the latency peak of Section 5.2."""
        window = self.tick_overhead[self._measured_slice()]
        return float(window.max()) if window.size else 0.0

    def overhead_percentile(self, percentile: float) -> float:
        """Per-tick overhead at the given percentile (warmup excluded).

        The paper reasons about latency *peaks*; percentiles expose the full
        distribution -- e.g. the p50/p99 gap distinguishes methods that
        concentrate overhead into one tick from methods that spread it.
        """
        if not 0.0 <= percentile <= 100.0:
            raise SimulationError(
                f"percentile must be in [0, 100], got {percentile}"
            )
        window = self.tick_overhead[self._measured_slice()]
        if window.size == 0:
            return 0.0
        return float(np.percentile(window, percentile))

    def overhead_concentration(self) -> float:
        """Peak-to-median overhead ratio: ~1 for spread-out methods,
        large for methods that pay everything in the checkpoint tick."""
        median = self.overhead_percentile(50.0)
        if median <= 0.0:
            return float("inf") if self.max_overhead > 0 else 1.0
        return self.max_overhead / median

    def exceeds_latency_limit(self) -> bool:
        """True if any tick pause exceeded half a tick (the Figure 3 bound)."""
        return self.max_overhead > self.config.hardware.latency_limit

    # ------------------------------------------------------------------
    # Figure 2(b) / 4(b) / 5(b): time to checkpoint
    # ------------------------------------------------------------------

    def measured_checkpoints(self) -> List[CheckpointRecord]:
        """Completed checkpoints that started after the warmup window."""
        warmup = self.config.warmup_ticks
        measured = [
            record
            for record in self.checkpoints
            if record.completed and record.start_tick >= warmup
        ]
        if measured:
            return measured
        # Short runs may complete no checkpoint after warmup; fall back to
        # everything we have rather than reporting nothing.
        return [record for record in self.checkpoints if record.completed] or list(
            self.checkpoints
        )

    @property
    def avg_checkpoint_time(self) -> float:
        """Average time to checkpoint (sync pause + async write), seconds."""
        records = self.measured_checkpoints()
        if not records:
            return 0.0
        return float(np.mean([record.duration for record in records]))

    @property
    def avg_checkpoint_period(self) -> float:
        """Average time between consecutive checkpoint starts, seconds."""
        starts = [record.start_time for record in self.checkpoints]
        if len(starts) < 2:
            return self.avg_checkpoint_time
        return float(np.mean(np.diff(starts)))

    @property
    def avg_objects_written(self) -> float:
        """Average objects written per checkpoint (``k`` in the model)."""
        records = self.measured_checkpoints()
        if not records:
            return 0.0
        return float(np.mean([record.write_count for record in records]))

    # ------------------------------------------------------------------
    # Figure 2(c) / 4(c) / 5(c): recovery time
    # ------------------------------------------------------------------

    @property
    def recovery_time(self) -> float:
        """Estimated recovery time in seconds (restore + replay)."""
        if self.recovery is None:
            raise SimulationError("run did not compute a recovery estimate")
        return self.recovery.total

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Flat dictionary of the headline metrics (for tables and JSON)."""
        return {
            "algorithm": self.algorithm_name,
            "key": self.algorithm_key,
            "ticks": self.num_ticks,
            "avg_updates_per_tick": float(self.tick_updates.mean())
            if self.tick_updates.size
            else 0.0,
            "avg_overhead_s": self.avg_overhead,
            "max_overhead_s": self.max_overhead,
            "avg_checkpoint_s": self.avg_checkpoint_time,
            "avg_objects_written": self.avg_objects_written,
            "checkpoints_completed": sum(
                1 for record in self.checkpoints if record.completed
            ),
            "recovery_s": self.recovery.total if self.recovery else float("nan"),
            "restore_s": self.recovery.restore_time if self.recovery else float("nan"),
            "replay_s": self.recovery.replay_time if self.recovery else float("nan"),
            "exceeds_latency_limit": self.exceeds_latency_limit(),
        }
