"""repro: checkpoint recovery for massively multiplayer online games.

A production-quality Python reproduction of "An Evaluation of Checkpoint
Recovery for Massively Multiplayer Online Games" (Vaz Salles et al., VLDB
2009): the six consistent-checkpointing algorithms, the analytic simulation
model, synthetic and game-derived workloads, a real durable game server with
crash recovery, and the full experiment suite.

Quickstart::

    from repro import CheckpointSimulator, PAPER_CONFIG, ZipfTrace

    trace = ZipfTrace(PAPER_CONFIG.geometry, updates_per_tick=64_000,
                      skew=0.8, num_ticks=200)
    simulator = CheckpointSimulator(PAPER_CONFIG)
    for result in simulator.run_all(trace):
        print(result.algorithm_name, result.avg_overhead,
              result.avg_checkpoint_time, result.recovery_time)
"""

from repro.advisor import AlgorithmAssessment, Recommendation, recommend
from repro.config import (
    GAME_CONFIG,
    GAME_GEOMETRY,
    PAPER_CONFIG,
    PAPER_GEOMETRY,
    PAPER_HARDWARE,
    SMALL_GEOMETRY,
    HardwareParameters,
    SimulationConfig,
    StateGeometry,
    small_config,
)
from repro.core import (
    ALGORITHM_KEYS,
    CheckpointFramework,
    CheckpointPlan,
    CheckpointPolicy,
    DiskLayout,
    UpdateEffects,
    algorithm_class,
    all_algorithm_classes,
    make_policy,
)
from repro.errors import ReproError
from repro.simulation import (
    CheckpointSimulator,
    CostModel,
    PrecomputedObjectTrace,
    RecoveryEstimate,
    SimulationResult,
    SweepTask,
    run_sweep,
)
from repro.state import GameStateTable
from repro.workloads import (
    GameLikeTrace,
    MaterializedTrace,
    TraceStatistics,
    UniformTrace,
    UpdateTrace,
    ZipfTrace,
    load_trace,
    save_trace,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHM_KEYS",
    "AlgorithmAssessment",
    "Recommendation",
    "recommend",
    "CheckpointFramework",
    "CheckpointPlan",
    "CheckpointPolicy",
    "CheckpointSimulator",
    "CostModel",
    "DiskLayout",
    "GAME_CONFIG",
    "GAME_GEOMETRY",
    "GameLikeTrace",
    "GameStateTable",
    "HardwareParameters",
    "MaterializedTrace",
    "PAPER_CONFIG",
    "PAPER_GEOMETRY",
    "PAPER_HARDWARE",
    "PrecomputedObjectTrace",
    "RecoveryEstimate",
    "ReproError",
    "SMALL_GEOMETRY",
    "SimulationConfig",
    "SimulationResult",
    "StateGeometry",
    "SweepTask",
    "TraceStatistics",
    "UniformTrace",
    "UpdateEffects",
    "UpdateTrace",
    "ZipfTrace",
    "algorithm_class",
    "all_algorithm_classes",
    "load_trace",
    "make_policy",
    "run_sweep",
    "save_trace",
    "small_config",
    "__version__",
]
