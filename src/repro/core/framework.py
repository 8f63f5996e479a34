"""The Checkpointing Algorithmic Framework of Section 4.1, executable.

The paper isolates the costs of every algorithm into four subroutines and
drives them from the discrete-event simulation loop::

    do synchronous on end of game tick:
        if last checkpoint finished then
            Ocopy <- Copy-To-Memory(Osync)          # synchronous pause
            do asynchronous: Write-Copies-To-Stable-Storage(Ocopy)
            register handler: on each Update u of o: Handle-Update(u, o)
            do asynchronous: Write-Objects-To-Stable-Storage(Oall \\ Osync)

:class:`CheckpointFramework` reproduces that control flow.  The
*which-objects* decisions come from a
:class:`~repro.core.policy.CheckpointPolicy`; the *doing* (charging model
costs, or actually copying memory and writing files) is delegated to a
:class:`SubroutineExecutor`.  The analytic simulator and the real durable
engine both run their tick loops through this class, so the framework logic
is written -- and tested -- exactly once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.plan import CheckpointPlan, UpdateEffects
from repro.core.policy import CheckpointPolicy


class SubroutineExecutor(ABC):
    """Executes (or prices) the four framework subroutines.

    Two implementations exist:

    * :class:`repro.simulation.simulator.SimulatedExecutor` charges the
      Section 4.2 cost model and advances virtual time;
    * :class:`repro.engine.executor.RealExecutor` copies actual numpy
      payloads and writes real checkpoint files with a per-tick I/O budget.
    """

    @abstractmethod
    def copy_to_memory(self, plan: CheckpointPlan) -> float:
        """``Copy-To-Memory``: eagerly copy ``plan.eager_copy_ids``.

        Returns the synchronous pause in seconds that this copy adds to the
        tick at whose boundary the checkpoint starts.
        """

    @abstractmethod
    def begin_stable_write(self, plan: CheckpointPlan) -> None:
        """Start the asynchronous write of this checkpoint to stable storage.

        Covers both ``Write-Copies-To-Stable-Storage`` (for eagerly copied
        state) and ``Write-Objects-To-Stable-Storage`` (for state read
        concurrently with the game) -- the distinction is thread-safety of
        the source, which only the real executor cares about.
        """

    @abstractmethod
    def stable_write_finished(self) -> bool:
        """True once the in-flight checkpoint is durable on stable storage."""

    @abstractmethod
    def handle_updates(self, effects: UpdateEffects) -> float:
        """``Handle-Update`` for one tick's worth of updates.

        Returns the overhead in seconds added to the tick (bit tests, locks,
        old-value copies).
        """


@dataclass(frozen=True)
class TickBoundary:
    """What happened at one end-of-tick framework invocation."""

    #: Plan of the checkpoint that completed at this boundary, if any.
    finished: Optional[CheckpointPlan]
    #: Plan of the checkpoint that started at this boundary, if any.
    started: Optional[CheckpointPlan]
    #: Synchronous pause (seconds) introduced by ``Copy-To-Memory``.
    sync_pause: float


class CheckpointFramework:
    """Drives a policy and an executor through the Section 4.1 control flow.

    The host tick loop calls :meth:`process_updates` once per tick (before
    the boundary) and :meth:`end_of_tick` at each tick boundary.  Checkpoints
    are taken back-to-back: as soon as the previous checkpoint is durable, a
    new one starts at the next boundary, which is how the paper checkpoints
    "as frequently as possible" to bound replay time.
    """

    def __init__(self, policy: CheckpointPolicy, executor: SubroutineExecutor) -> None:
        self._policy = policy
        self._executor = executor
        self._active_plan: Optional[CheckpointPlan] = None

    @property
    def policy(self) -> CheckpointPolicy:
        """The algorithm being driven."""
        return self._policy

    @property
    def executor(self) -> SubroutineExecutor:
        """The executor pricing or performing the subroutines."""
        return self._executor

    @property
    def active_plan(self) -> Optional[CheckpointPlan]:
        """Plan of the in-flight checkpoint, if one is active."""
        return self._active_plan

    def process_updates(
        self, object_ids: np.ndarray, update_count: int
    ) -> float:
        """Run ``Handle-Update`` for one tick's updates; returns overhead (s).

        For real executors this must be called *before* the updates are
        applied to the state table, because first-touched objects' old values
        have to be saved first.
        """
        effects = self._policy.handle_updates(object_ids, update_count)
        return self._executor.handle_updates(effects)

    def end_of_tick(self, allow_start: bool = True) -> TickBoundary:
        """The ``do synchronous on end of game tick`` block.

        ``allow_start=False`` finishes a completed checkpoint but defers
        starting the next one -- used by hosts that cap the checkpoint
        frequency (``SimulationConfig.min_checkpoint_interval_ticks``).
        """
        finished = None
        if self._active_plan is not None and self._executor.stable_write_finished():
            self._policy.finish_checkpoint()
            finished = self._active_plan
            self._active_plan = None

        started = None
        sync_pause = 0.0
        if self._active_plan is None and allow_start:
            plan = self._policy.begin_checkpoint()
            sync_pause = self._executor.copy_to_memory(plan)
            self._executor.begin_stable_write(plan)
            self._active_plan = plan
            started = plan
        return TickBoundary(finished=finished, started=started, sync_pause=sync_pause)
