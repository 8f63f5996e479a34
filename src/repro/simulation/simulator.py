"""The checkpoint simulator: the paper's Java simulator, in Python.

:class:`CheckpointSimulator` feeds an update trace through one checkpointing
algorithm, driving the :class:`~repro.core.framework.CheckpointFramework`
with a :class:`SimulatedExecutor` that prices every subroutine with the
Section 4.2 cost model instead of doing real work.  Virtual time advances by
the nominal tick length plus whatever overhead the algorithm introduces, and
the asynchronous checkpoint write drains concurrently in virtual time.

To amortize workload generation across the six algorithms, a trace can be
pre-reduced once with :class:`PrecomputedObjectTrace` (per-tick unique atomic
objects plus raw update counts -- all any policy can observe) and reused for
every run.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

import numpy as np

from repro.config import SimulationConfig
from repro.core.framework import CheckpointFramework, SubroutineExecutor
from repro.core.plan import CheckpointPlan, DiskLayout, UpdateEffects
from repro.core.policy import CheckpointPolicy
from repro.core.registry import make_policy
from repro.errors import SimulationError
from repro.simulation.costmodel import CostModel
from repro.simulation.disk import DiskWriteScheduler
from repro.simulation.recovery import estimate_recovery
from repro.simulation.results import CheckpointRecord, SimulationResult
from repro.state.dirty import unique_ids
from repro.workloads.base import UpdateTrace

# The reduction lives with the workloads (it is a pure function of the
# trace); re-exported here for compatibility.
from repro.workloads.reduced import PrecomputedObjectTrace

TraceLike = Union[UpdateTrace, PrecomputedObjectTrace]


def _object_tick_stream(trace: TraceLike) -> Iterable[Tuple[np.ndarray, int]]:
    if isinstance(trace, PrecomputedObjectTrace):
        return trace.object_ticks()
    geometry = trace.geometry
    return (
        (unique_ids(geometry.object_of_cell(cells)), int(cells.size))
        for cells in trace.ticks()
    )


class SimulatedExecutor(SubroutineExecutor):
    """Prices the four framework subroutines and tracks virtual time."""

    def __init__(self, cost_model: CostModel) -> None:
        self._cost_model = cost_model
        self._scheduler = DiskWriteScheduler()
        self.now = 0.0
        self._last_effects: UpdateEffects = UpdateEffects.none()
        self._last_job_duration = 0.0

    @property
    def cost_model(self) -> CostModel:
        """The cost model pricing the subroutines."""
        return self._cost_model

    @property
    def last_effects(self) -> UpdateEffects:
        """Effects of the most recent :meth:`handle_updates` call."""
        return self._last_effects

    @property
    def last_job_duration(self) -> float:
        """Asynchronous duration of the most recently started write."""
        return self._last_job_duration

    def advance(self, seconds: float) -> None:
        """Advance virtual time (the simulator adds the nominal tick length)."""
        if seconds < 0:
            raise SimulationError(f"cannot advance time by {seconds}")
        self.now += seconds

    # -- SubroutineExecutor interface ----------------------------------

    def copy_to_memory(self, plan: CheckpointPlan) -> float:
        pause = self._cost_model.sync_copy_time(plan.eager_copy_ids)
        self.now += pause
        return pause

    def begin_stable_write(self, plan: CheckpointPlan) -> None:
        if not self._scheduler.finished(self.now):
            raise SimulationError(
                "framework started a checkpoint while the previous write "
                "was still in flight"
            )
        if self._scheduler.active_job is not None:
            self._scheduler.retire(self.now)
        write_count = plan.write_count(self._cost_model.geometry.num_objects)
        if plan.layout is DiskLayout.LOG:
            duration = self._cost_model.log_write_time(write_count)
        else:
            duration = self._cost_model.double_backup_write_time(write_count)
        self._last_job_duration = duration
        self._scheduler.begin(self.now, duration)

    def stable_write_finished(self) -> bool:
        return self._scheduler.finished(self.now)

    def handle_updates(self, effects: UpdateEffects) -> float:
        self._last_effects = effects
        overhead = self._cost_model.update_overhead(effects)
        self.now += overhead
        return overhead


class CheckpointSimulator:
    """Runs checkpointing algorithms over update traces in virtual time."""

    def __init__(self, config: SimulationConfig) -> None:
        self._config = config
        self._cost_model = CostModel(config.hardware, config.geometry)

    @property
    def config(self) -> SimulationConfig:
        """The configuration this simulator runs with."""
        return self._config

    @property
    def cost_model(self) -> CostModel:
        """The cost model derived from the configuration."""
        return self._cost_model

    def run(
        self,
        algorithm: Union[str, CheckpointPolicy],
        trace: TraceLike,
    ) -> SimulationResult:
        """Simulate one algorithm over one trace and return its result."""
        geometry = self._config.geometry
        if trace.geometry != geometry:
            raise SimulationError(
                f"trace geometry {trace.geometry} does not match simulator "
                f"geometry {geometry}"
            )
        if isinstance(algorithm, str):
            policy = make_policy(
                algorithm,
                geometry.num_objects,
                full_dump_period=self._config.full_dump_period,
            )
        else:
            policy = algorithm
            if policy.checkpoints_started:
                raise SimulationError(
                    "policy instances cannot be reused across runs; "
                    "pass the algorithm key to get a fresh one"
                )
            if policy.num_objects != geometry.num_objects:
                raise SimulationError(
                    f"policy tracks {policy.num_objects} objects but the "
                    f"geometry has {geometry.num_objects}"
                )

        executor = SimulatedExecutor(self._cost_model)
        framework = CheckpointFramework(policy, executor)
        base = self._config.hardware.tick_duration
        cost = self._cost_model

        # Per-tick series are preallocated (the trace knows its length) and
        # hold raw event counts; the cost multiplications happen once,
        # vectorized, after the loop.
        num_ticks = trace.num_ticks
        tick_updates = np.zeros(num_ticks, dtype=np.int64)
        update_overheads = np.zeros(num_ticks, dtype=np.float64)
        bit_counts = np.zeros(num_ticks, dtype=np.int64)
        lock_counts = np.zeros(num_ticks, dtype=np.int64)
        copy_counts = np.zeros(num_ticks, dtype=np.int64)
        pause_time = np.zeros(num_ticks, dtype=np.float64)
        records: List[CheckpointRecord] = []

        min_interval = self._config.min_checkpoint_interval_ticks
        last_start_tick: int = -min_interval  # first checkpoint is immediate

        for tick, (unique_objects, update_count) in enumerate(
            _object_tick_stream(trace)
        ):
            if tick >= num_ticks:
                raise SimulationError(
                    f"trace yielded more than its declared {num_ticks} ticks"
                )
            executor.advance(base)
            update_overhead = framework.process_updates(unique_objects,
                                                        update_count)
            effects = executor.last_effects
            allow_start = tick - last_start_tick >= min_interval
            boundary = framework.end_of_tick(allow_start=allow_start)
            if boundary.started is not None:
                last_start_tick = tick

            if boundary.finished is not None:
                records[boundary.finished.checkpoint_index].finished_tick = tick
            if boundary.started is not None:
                plan = boundary.started
                records.append(
                    CheckpointRecord(
                        index=plan.checkpoint_index,
                        start_tick=tick,
                        start_time=executor.now,
                        sync_pause=boundary.sync_pause,
                        write_count=plan.write_count(geometry.num_objects),
                        async_duration=executor.last_job_duration,
                        layout=plan.layout,
                        is_full_dump=plan.is_full_dump,
                    )
                )

            tick_updates[tick] = update_count
            update_overheads[tick] = update_overhead
            bit_counts[tick] = effects.bit_tests
            lock_counts[tick] = effects.lock_count
            copy_counts[tick] = effects.copy_count
            pause_time[tick] = boundary.sync_pause

        overhead_array = update_overheads + pause_time
        result = SimulationResult(
            algorithm_key=policy.key,
            algorithm_name=policy.name,
            config=self._config,
            base_tick_length=base,
            tick_updates=tick_updates,
            tick_overhead=overhead_array,
            tick_length=base + overhead_array,
            bit_time=bit_counts * cost.hardware.bit_test_overhead,
            lock_time=lock_counts * cost.hardware.lock_overhead,
            copy_time=copy_counts * cost.single_object_copy_time(),
            pause_time=pause_time,
            checkpoints=records,
        )
        result.recovery = estimate_recovery(
            type(policy),
            result.measured_checkpoints(),
            cost,
            self._config.full_dump_period,
            min_interval_seconds=(
                (self._config.min_checkpoint_interval_ticks - 1) * base
            ),
        )
        return result

    def run_all(
        self,
        trace: TraceLike,
        algorithms: Iterable[str] = None,
    ) -> List[SimulationResult]:
        """Run several algorithms (default: all six) over one trace."""
        from repro.core.registry import ALGORITHM_KEYS

        keys = list(algorithms) if algorithms is not None else list(ALGORITHM_KEYS)
        if not isinstance(trace, PrecomputedObjectTrace):
            trace = PrecomputedObjectTrace(trace)
        return [self.run(key, trace) for key in keys]
