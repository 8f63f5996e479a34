"""A real durable game server built on the checkpointing framework.

Unlike the analytic simulator, this package moves actual bytes: the
:class:`~repro.engine.server.DurableGameServer` runs a deterministic
:class:`~repro.engine.app.TickApplication` tick by tick, checkpointing its
:class:`~repro.state.table.GameStateTable` to real files through any of the
six algorithms -- on the game thread at each cut, or overlapped with ticks
by a :class:`~repro.engine.writer_pool.CheckpointWriterPool` worker -- logging
every tick to the logical :class:`~repro.storage.action_log.ActionLog`, and
surviving crashes: :class:`~repro.engine.recovery.RecoveryManager` restores
the newest consistent checkpoint and replays the log to the exact crash
tick.  :class:`~repro.engine.fleet.ShardFleet` scales the same machinery to
N concurrent shards -- as threads sharing the GIL, or with
``backend="process"`` as worker processes over shared-memory state tables
(:mod:`repro.engine.shard_worker`), one core per shard.
"""

from repro.engine.app import TickApplication, TickUpdatesPlan
from repro.engine.executor import RealExecutor
from repro.engine.fleet import (
    FLEET_BACKENDS,
    FleetRunReport,
    ShardFleet,
)
from repro.engine.recovery import (
    RecoveryManager,
    RecoveryReport,
)
from repro.engine.server import DurableGameServer
from repro.engine.shard import MMOShard, ShardRecovery
from repro.engine.writer import CheckpointJob, WriterStats
from repro.engine.writer_pool import CheckpointWriterPool, PoolStats, PoolWriter

__all__ = [
    "FLEET_BACKENDS",
    "CheckpointJob",
    "CheckpointWriterPool",
    "DurableGameServer",
    "FleetRunReport",
    "MMOShard",
    "PoolStats",
    "PoolWriter",
    "RealExecutor",
    "RecoveryManager",
    "RecoveryReport",
    "ShardFleet",
    "ShardRecovery",
    "TickApplication",
    "TickUpdatesPlan",
    "WriterStats",
]
