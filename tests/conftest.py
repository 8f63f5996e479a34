"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    PAPER_HARDWARE,
    SimulationConfig,
    StateGeometry,
)
from repro.engine.app import TickApplication, TickUpdatesPlan


@pytest.fixture
def tiny_geometry() -> StateGeometry:
    """4,000 cells in 32 objects -- enough structure, instant tests."""
    return StateGeometry(rows=400, columns=10)


@pytest.fixture
def tiny_config(tiny_geometry) -> SimulationConfig:
    return SimulationConfig(hardware=PAPER_HARDWARE, geometry=tiny_geometry)


class RandomWalkApp(TickApplication):
    """A minimal deterministic tick application for engine tests.

    Every tick bumps a random sample of cells by a random amount -- enough
    churn to dirty objects unevenly while staying trivially deterministic.
    """

    def __init__(self, geometry: StateGeometry, updates_per_tick: int = 50):
        self._geometry = geometry
        self._updates_per_tick = updates_per_tick

    @property
    def geometry(self) -> StateGeometry:
        return self._geometry

    @property
    def dtype(self):
        return np.float32

    def initialize(self, table, rng: np.random.Generator) -> None:
        table.cells[:] = rng.random(table.cells.shape).astype(np.float32)

    def plan_tick(self, table, rng: np.random.Generator, tick: int):
        n = self._updates_per_tick
        rows = rng.integers(0, self._geometry.rows, n)
        columns = rng.integers(0, self._geometry.columns, n)
        values = (table.cells[rows, columns] + rng.random(n)).astype(np.float32)
        return TickUpdatesPlan(rows=rows, columns=columns, values=values)


@pytest.fixture
def random_walk_app(tiny_geometry) -> RandomWalkApp:
    return RandomWalkApp(tiny_geometry)
