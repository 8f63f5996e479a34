"""The paper's simulation model (Section 4.2), in Python.

"Our simulation does not perform any actual I/O operations or memory copies.
Rather, we keep track of which objects have been updated since the last
checkpoint and compute the time necessary for these operations based on the
detailed simulation model."

* :class:`~repro.simulation.costmodel.CostModel` -- the analytic formulas:
  synchronous copy time, asynchronous write time for log and double-backup
  organizations, per-update overhead, restore time.
* :class:`~repro.simulation.disk.DiskWriteScheduler` -- tracks the one
  in-flight asynchronous checkpoint write on the dedicated recovery disk.
* :class:`~repro.simulation.simulator.CheckpointSimulator` -- the tick loop
  that drives a policy through the framework and records per-tick latency,
  checkpoint times, and recovery estimates.
* :class:`~repro.simulation.results.SimulationResult` -- per-tick series,
  per-checkpoint records, and the aggregates the figures plot.
* :func:`~repro.simulation.sweep.run_sweep` -- serial execution of
  ``(workload point, algorithm)`` sweeps, reducing each distinct trace once.
"""

from repro.simulation.costmodel import CostModel
from repro.simulation.disk import DiskWriteScheduler, WriteJob
from repro.simulation.recovery import RecoveryEstimate, estimate_recovery
from repro.simulation.results import CheckpointRecord, SimulationResult
from repro.simulation.simulator import (
    CheckpointSimulator,
    PrecomputedObjectTrace,
    SimulatedExecutor,
)
from repro.simulation.sweep import SweepTask, run_sweep

__all__ = [
    "CheckpointRecord",
    "CheckpointSimulator",
    "CostModel",
    "DiskWriteScheduler",
    "PrecomputedObjectTrace",
    "RecoveryEstimate",
    "SimulatedExecutor",
    "SimulationResult",
    "SweepTask",
    "WriteJob",
    "estimate_recovery",
    "run_sweep",
]
