"""Serial execution of simulation sweeps.

Every figure in the paper is a sweep: N workload points x M algorithms.
:func:`run_sweep` runs them in task order, in process, and reduces each
distinct trace object once per sweep, so points that share a trace (the
ablations vary only the config) share one reduction.  The simulator is
deterministic, so a sweep's results depend only on its tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.config import SimulationConfig
from repro.core.registry import ALGORITHM_KEYS
from repro.errors import SimulationError
from repro.simulation.simulator import CheckpointSimulator, TraceLike
from repro.simulation.results import SimulationResult
from repro.workloads.reduced import PrecomputedObjectTrace


@dataclass(frozen=True)
class SweepTask:
    """One workload point of a sweep: a key, a config, a trace, algorithms."""

    key: Any
    config: SimulationConfig
    trace: TraceLike
    algorithms: Tuple[str, ...] = tuple(ALGORITHM_KEYS)

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise SimulationError("a SweepTask needs at least one algorithm")


def run_sweep(
    tasks: Sequence[SweepTask],
) -> Dict[Any, List[SimulationResult]]:
    """Run every ``(task, algorithm)`` pair; results in task order.

    Returns ``{task.key: [result per algorithm, in task order]}``.  Task
    keys must be unique within one call.
    """
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        raise SimulationError("sweep task keys must be unique")
    # A reduction is held from its trace's first task to its last, so
    # memory is bounded by the traces in use, not by the sweep's length.
    last_use = {id(task.trace): index for index, task in enumerate(tasks)}
    reductions: Dict[int, PrecomputedObjectTrace] = {}
    results = {}
    for index, task in enumerate(tasks):
        reduced = reductions.get(id(task.trace))
        if reduced is None:
            reduced = task.trace
            if not isinstance(reduced, PrecomputedObjectTrace):
                reduced = PrecomputedObjectTrace(reduced)
            reductions[id(task.trace)] = reduced
        simulator = CheckpointSimulator(task.config)
        results[task.key] = [
            simulator.run(algorithm, reduced) for algorithm in task.algorithms
        ]
        if last_use[id(task.trace)] == index:
            del reductions[id(task.trace)]
    return results
