"""Figure 6: the simulator against the engine we ship, side by side.

One :class:`TraceReplayApp` replays an update trace through
:class:`~repro.engine.DurableGameServer` on a one-worker
:class:`~repro.engine.CheckpointWriterPool`, the server is crashed and
:class:`~repro.engine.RecoveryManager` recovers it, for all six algorithms.
Every measured number is one the engine accounts for itself.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import HardwareParameters, SimulationConfig, StateGeometry
from repro.engine import (
    CheckpointWriterPool,
    DurableGameServer,
    RecoveryManager,
    TickApplication,
    TickUpdatesPlan,
)
from repro.errors import ReproError, ValidationError
from repro.simulation.simulator import CheckpointSimulator
from repro.validation.microbench import measure_host_parameters
from repro.workloads.base import MaterializedTrace
from repro.workloads.zipf import ZipfTrace

#: Default validation scale: 2M cells = 8 MB of state, 16,384 atomic objects.
#: Small enough for Python to tick at game rates, large enough that memory
#: copies and disk writes dominate the measured costs (see DESIGN.md).
VALIDATION_GEOMETRY = StateGeometry(rows=262_144, columns=8)


class TraceReplayApp(TickApplication):
    """Tick ``t`` writes the cells of tick ``t`` of a materialised trace.

    The written values are a function of the cell and the tick alone, so
    logical-log replay reproduces them whatever the table holds.
    """

    def __init__(self, trace: MaterializedTrace) -> None:
        self._trace = trace

    @property
    def geometry(self) -> StateGeometry:
        return self._trace.geometry

    def initialize(self, table, rng: np.random.Generator) -> None:
        table.fill_random(rng)

    def plan_tick(self, table, rng: np.random.Generator, tick: int):
        cells = self._trace.tick(tick)
        rows, columns = np.divmod(cells, self.geometry.columns)
        return TickUpdatesPlan(rows, columns, (cells + tick).astype(table.dtype))


def measure_engine_run(
    app: TickApplication,
    algorithm: str,
    num_ticks: int,
    directory: Union[str, os.PathLike],
    seed: int = 0,
    tick_seconds: float = 0.0,
) -> Tuple[np.ndarray, List[float], object]:
    """Run ``app`` on the engine, crash it, recover it, return the accounts.

    Returns the per-tick overhead (Copy-To-Memory pause plus Handle-Update
    old-value saves), the flush durations of the committed checkpoints, and
    the engine's ``RecoveryReport``.  Ticks begin ``tick_seconds`` apart (0:
    flat out), so a flush spans the ticks it would at that tick rate.  The
    server flushes through a private one-worker pool and is crashed straight
    after the last tick -- the writer is waited for only while nothing has
    committed -- so recovery replays the ticks since the newest committed
    cut.  A run that cannot be measured -- the engine failed, no checkpoint
    committed, recovery raised, or the recovered table is not the live table
    at the crash -- raises :class:`~repro.errors.ValidationError`: a row of
    zeros would read as a measurement.
    """
    accounted = np.zeros(num_ticks)
    try:
        with CheckpointWriterPool(1) as pool, DurableGameServer(
            app, directory, algorithm=algorithm, seed=seed, writer_pool=pool,
            full_dump_period=SimulationConfig.full_dump_period,  # the model's C
        ) as server:
            stats, writer = server.stats, pool.handles[0]
            started = time.perf_counter()
            for tick in range(num_ticks):
                delay = started + tick * tick_seconds - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                server.run_tick()
                accounted[tick] = (
                    stats.sync_copy_seconds + stats.handle_update_seconds
                )
            if not writer.stats().durations:
                server.wait_checkpoint_idle()
            server.crash()
            durations, live = writer.stats().durations, server.table
            if not durations:
                raise ValidationError("no checkpoint committed before the crash")
        report = RecoveryManager(app, directory, seed=seed).recover()
        if not report.table.equals(live):
            raise ValidationError("recovered table differs from the live one")
    except ReproError as error:
        raise ValidationError(
            f"{algorithm} could not be measured over {num_ticks} ticks: {error}"
        ) from error
    return np.diff(accounted, prepend=0.0), durations, report


@dataclass(frozen=True)
class ValidationComparison:
    """One (algorithm, updates-per-tick) cell of the Figure 6 panels.

    The engine's stopwatch covers the Copy-To-Memory pause and
    Handle-Update's locked old-value saves but not the policy's dirty-bit
    pass, so ``simulated_overhead`` is the model's pause + lock + copy time
    and the model's bit time stands beside it, simulated only.
    """

    algorithm_key: str
    algorithm_name: str
    updates_per_tick: int
    simulated_overhead: float
    simulated_bit_time: float
    measured_overhead: float
    simulated_checkpoint: float
    measured_checkpoint: float
    simulated_recovery: float
    measured_recovery: float

    def overhead_ratio(self) -> Optional[float]:
        """Engine / simulation overhead; None where the model charges nothing."""
        if self.simulated_overhead == 0.0:
            return None
        return self.measured_overhead / self.simulated_overhead


def run_validation_point(
    updates_per_tick: int,
    hardware: HardwareParameters,
    geometry: StateGeometry = VALIDATION_GEOMETRY,
    num_ticks: int = 90,
    skew: float = 0.8,
    seed: int = 0,
    directory: Optional[Union[str, os.PathLike]] = None,
) -> List[ValidationComparison]:
    """Run all six algorithms, engine and simulator, at one update rate."""
    trace = ZipfTrace(
        geometry,
        updates_per_tick=updates_per_tick,
        skew=skew,
        num_ticks=num_ticks,
        seed=seed,
    ).materialize()
    simulator = CheckpointSimulator(
        SimulationConfig(hardware=hardware, geometry=geometry)
    )
    app, comparisons = TraceReplayApp(trace), []
    with tempfile.TemporaryDirectory(dir=directory) as root:
        for simulated in simulator.run_all(trace):
            key = simulated.algorithm_key
            overhead, durations, report = measure_engine_run(
                app, key, num_ticks, os.path.join(root, key), seed,
                hardware.tick_duration,  # the model's tick length, on both sides
            )
            accounted = (
                simulated.pause_time + simulated.lock_time + simulated.copy_time
            )
            comparisons.append(
                ValidationComparison(
                    algorithm_key=key,
                    algorithm_name=simulated.algorithm_name,
                    updates_per_tick=updates_per_tick,
                    simulated_overhead=float(accounted.mean()),
                    simulated_bit_time=float(simulated.bit_time.mean()),
                    measured_overhead=float(overhead.mean()),
                    simulated_checkpoint=simulated.avg_checkpoint_time,
                    measured_checkpoint=float(np.mean(durations)),
                    simulated_recovery=simulated.recovery_time,
                    measured_recovery=report.recovery_seconds,
                )
            )
    return comparisons


def run_validation_sweep(
    updates_per_tick_values: Sequence[int] = (1_000, 4_000, 16_000, 64_000),
    geometry: StateGeometry = VALIDATION_GEOMETRY,
    num_ticks: int = 90,
    hardware: Optional[HardwareParameters] = None,
    quick_calibration: bool = True,
    seed: int = 0,
) -> List[ValidationComparison]:
    """The full Figure 6 sweep; measures host parameters once, reuses them."""
    if hardware is None:
        hardware = measure_host_parameters(quick=quick_calibration)
    return [
        comparison
        for updates_per_tick in updates_per_tick_values
        for comparison in run_validation_point(
            updates_per_tick, hardware, geometry, num_ticks, seed=seed
        )
    ]
