"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
import sys
import threading

import numpy as np
import pytest

from repro.config import (
    PAPER_HARDWARE,
    SimulationConfig,
    StateGeometry,
)
from repro.engine.app import TickApplication, TickUpdatesPlan
from repro.errors import StorageError

#: Seconds one test may run before faulthandler dumps every thread's stack
#: and ends the run, so a hang fails with a traceback instead of stalling.
HANG_SECONDS = 120

#: Where a hang's traceback goes: a duplicate of the terminal's stderr.
HANG_REPORT_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while pytest configures, so fd 2 is still
    # the terminal here; during a test it is the capture file, which a run
    # that ends in faulthandler's exit never prints.
    config.stash[HANG_REPORT_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[HANG_REPORT_FD])


@pytest.fixture(autouse=True)
def hang_watchdog(pytestconfig):
    """Dump every thread's stack and exit if the test outlives
    :data:`HANG_SECONDS`.  A child forked meanwhile must end through
    ``os._exit`` (as ``multiprocessing`` workers do): interpreter
    finalization in a child would wait on the parent's watchdog thread."""
    faulthandler.dump_traceback_later(
        HANG_SECONDS, exit=True, file=pytestconfig.stash[HANG_REPORT_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


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


class FlushGate:
    """Holds a pool worker's checkpoint flush in flight.

    Called from inside the flush -- as a store's ``write_fault_hook``, or
    wrapped around the executor's ``read_payloads_into`` to hold it before
    staging -- it blocks until :meth:`release`.  Then it raises
    :class:`~repro.errors.StorageError` if built with ``fail=True``, so the
    checkpoint never commits, or lets the flush go on.  While ``armed`` is
    False it lets every call through.
    """

    def __init__(self, fail: bool = False, armed: bool = True):
        self.fail = fail
        self.armed = armed
        self.reached = threading.Event()
        self._released = threading.Event()

    def __call__(self, *args) -> None:
        if not self.armed:
            return
        self.reached.set()
        assert self._released.wait(timeout=60.0), "the gate was never opened"
        if self.fail:
            raise StorageError("flush held at the gate, then failed")

    def release(self) -> None:
        self._released.set()
