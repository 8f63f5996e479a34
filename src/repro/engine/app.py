"""The application contract for the durable engine.

A :class:`TickApplication` is the game: it fills the initial state table and,
each tick, *plans* a batch of cell updates.  Two rules make crash recovery by
logical-log replay possible (Section 3.1 of the paper relies on the same
discipline):

1. **All mutable state lives in the table and the random generator.**  The
   application object itself must be stateless across ticks (configuration
   only), so that restoring the table and the generator state reproduces its
   behaviour exactly.
2. **Planning is deterministic.**  ``plan_tick(table, rng, tick)`` must
   depend only on its arguments; it reads the table freely but must not
   mutate it -- the server applies the returned updates itself, after the
   checkpointing framework has had the chance to save old values.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.config import StateGeometry


@dataclass(frozen=True)
class TickUpdatesPlan:
    """One tick's planned cell updates: parallel rows/columns/values arrays."""

    rows: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (self.rows.shape == self.columns.shape == self.values.shape):
            raise ValueError(
                "rows, columns, and values must have identical shapes, got "
                f"{self.rows.shape}, {self.columns.shape}, {self.values.shape}"
            )

    @property
    def update_count(self) -> int:
        """Number of cell updates in the plan."""
        return int(self.rows.size)

    @classmethod
    def empty(cls, dtype) -> "TickUpdatesPlan":
        """A plan with no updates."""
        index = np.empty(0, dtype=np.int64)
        return cls(rows=index, columns=index, values=np.empty(0, dtype=dtype))


class TickApplication(ABC):
    """A deterministic tick-driven game hosted by the durable engine."""

    @property
    @abstractmethod
    def geometry(self) -> StateGeometry:
        """Shape of the state table this application needs."""

    @property
    def dtype(self):
        """Cell dtype (must match ``geometry.cell_bytes``); float32 default."""
        return np.float32

    @abstractmethod
    def initialize(self, table, rng: np.random.Generator) -> None:
        """Fill the initial game state (deterministic given ``rng``)."""

    @abstractmethod
    def plan_tick(
        self, table, rng: np.random.Generator, tick: int
    ) -> TickUpdatesPlan:
        """Plan one tick's updates without mutating the table."""

    def plan_tick_with_commands(
        self, table, rng: np.random.Generator, tick: int, commands: bytes
    ) -> TickUpdatesPlan:
        """Plan one tick given this tick's client commands.

        The durable engine logs ``commands`` verbatim in the tick's
        logical-log record and feeds the identical bytes back during replay,
        so command handling participates in deterministic recovery.  The
        default implementation ignores commands and delegates to
        :meth:`plan_tick`; interactive games override this instead.
        """
        return self.plan_tick(table, rng, tick)
