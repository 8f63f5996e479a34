"""Tests for the simulator-vs-engine validation harness."""

import ast
import inspect
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.validation
from repro.config import HardwareParameters, SimulationConfig, StateGeometry
from repro.core.registry import ALGORITHM_KEYS
from repro.engine import (
    CheckpointWriterPool,
    DurableGameServer,
    TickUpdatesPlan,
)
from repro.errors import RecoveryError, StorageError, ValidationError
from repro.simulation.simulator import CheckpointSimulator
from repro.validation import harness
from repro.validation.harness import (
    TraceReplayApp,
    ValidationComparison,
    measure_engine_run,
    run_validation_point,
    run_validation_sweep,
)
from repro.workloads.zipf import ZipfTrace

TEST_GEOMETRY = StateGeometry(rows=4_096, columns=8)

#: Deterministic stand-in for host measurement (keeps tests fast and stable).
#: The harness paces the engine at the model's tick length; 100 Hz on both
#: sides keeps a 20-tick point at 0.2 s an algorithm.
FIXED_HARDWARE = HardwareParameters(
    tick_frequency_hz=100.0,
    memory_bandwidth=8e9,
    memory_latency=200e-9,
    lock_overhead=100e-9,
    bit_test_overhead=5e-9,
    disk_bandwidth=200e6,
)


def zipf_trace(num_ticks=20, seed=0):
    return ZipfTrace(
        TEST_GEOMETRY, updates_per_tick=300, num_ticks=num_ticks, seed=seed
    ).materialize()


def replay_app():
    return TraceReplayApp(zipf_trace())


class TestValidationPoint:
    def test_point_produces_both_algorithms(self, tmp_path):
        """Both sides, simulated and measured, of all six algorithms.  A
        recovered table that was not the live one would have raised."""
        comparisons = run_validation_point(
            updates_per_tick=300,
            hardware=FIXED_HARDWARE,
            geometry=TEST_GEOMETRY,
            num_ticks=20,
            directory=tmp_path,
        )
        assert [c.algorithm_key for c in comparisons] == list(ALGORITHM_KEYS)
        for comparison in comparisons:
            assert comparison.simulated_overhead > 0
            assert comparison.measured_overhead > 0
            assert comparison.simulated_checkpoint > 0
            assert comparison.measured_checkpoint > 0
            assert comparison.simulated_recovery > 0
            assert comparison.measured_recovery > 0
        assert list(tmp_path.iterdir()) == [], "scratch files left behind"

    def test_overhead_ratio(self, tmp_path):
        comparisons = run_validation_point(
            updates_per_tick=300,
            hardware=FIXED_HARDWARE,
            geometry=TEST_GEOMETRY,
            num_ticks=20,
            directory=tmp_path,
        )
        cou = next(c for c in comparisons if c.algorithm_key == "copy-on-update")
        assert cou.overhead_ratio() > 0

    def test_overhead_ratio_of_a_free_model_is_none(self):
        free = ValidationComparison(
            "naive-snapshot", "Naive-Snapshot", 100,
            simulated_overhead=0.0, simulated_bit_time=0.0,
            measured_overhead=1e-3,
            simulated_checkpoint=1.0, measured_checkpoint=1.0,
            simulated_recovery=1.0, measured_recovery=1.0,
        )
        assert free.overhead_ratio() is None


    def test_engine_is_paced_at_the_models_tick_length(
        self, monkeypatch, tmp_path
    ):
        paces = []

        def spy(app, algorithm, num_ticks, directory, seed=0, tick_seconds=0.0):
            paces.append(tick_seconds)
            return measure_engine_run(
                app, algorithm, num_ticks, directory, seed, tick_seconds
            )

        monkeypatch.setattr(harness, "measure_engine_run", spy)
        started = time.perf_counter()
        run_validation_point(
            300, FIXED_HARDWARE, TEST_GEOMETRY, num_ticks=8, directory=tmp_path
        )
        assert paces == [FIXED_HARDWARE.tick_duration] * len(ALGORITHM_KEYS)
        # Tick t begins t periods after tick 0, for each of the six runs.
        assert time.perf_counter() - started >= 6 * 7 * 0.01


class TestValidationSweep:
    def test_sweep_covers_all_points(self):
        comparisons = run_validation_sweep(
            updates_per_tick_values=(100, 500),
            geometry=TEST_GEOMETRY,
            num_ticks=15,
            hardware=FIXED_HARDWARE,
        )
        assert len(comparisons) == 2 * len(ALGORITHM_KEYS)
        rates = sorted({c.updates_per_tick for c in comparisons})
        assert rates == [100, 500]


class TestEngineRun:
    def test_accounts_come_from_the_engine(self, tmp_path):
        overhead, durations, report = measure_engine_run(
            replay_app(), "copy-on-update", 20, tmp_path
        )
        assert overhead.shape == (20,)
        assert (overhead >= 0).all() and overhead.sum() > 0
        assert durations and all(d > 0 for d in durations)
        assert report.restore_seconds > 0
        # Replay covers exactly the ticks after the restored cut.
        assert report.checkpoint_tick + report.ticks_replayed == 19

    def test_crash_comes_straight_after_the_last_tick(
        self, monkeypatch, tmp_path
    ):
        """Once a checkpoint has committed the writer is not waited for:
        flushes still in flight at the crash are lost, and recovery replays
        the real tail since the newest committed cut."""
        def make_hook(server):
            def hold_from_tick_ten():
                if server.ticks_run < 10:
                    return
                deadline = time.monotonic() + 10.0
                while not server._crashed and time.monotonic() < deadline:
                    time.sleep(0.001)
                raise StorageError("writer killed mid-flush")
            return hold_from_tick_ten

        install_store_hook(monkeypatch, make_hook)
        _, durations, report = measure_engine_run(
            replay_app(), "copy-on-update", 20, tmp_path, tick_seconds=0.005
        )
        assert durations
        assert report.ticks_replayed >= 9
        assert report.checkpoint_tick + report.ticks_replayed == 19
        assert report.replay_seconds > 0

    @pytest.mark.parametrize("algorithm", ALGORITHM_KEYS)
    def test_model_and_engine_agree_on_counts(self, algorithm, tmp_path):
        """Counts, not clocks: with the writer idle at every tick boundary
        on both sides, the simulator and the engine start the same
        checkpoints and write the same number of objects in each."""
        trace = zipf_trace(num_ticks=40, seed=3)
        fast_disk = HardwareParameters(
            memory_bandwidth=8e9, memory_latency=200e-9, lock_overhead=100e-9,
            bit_test_overhead=5e-9, disk_bandwidth=1e12,
        )
        result = CheckpointSimulator(
            SimulationConfig(
                hardware=fast_disk, geometry=TEST_GEOMETRY,
                min_checkpoint_interval_ticks=8,
            )
        ).run(algorithm, trace)
        with CheckpointWriterPool(1) as pool, DurableGameServer(
            TraceReplayApp(trace), tmp_path, algorithm=algorithm, seed=3,
            min_checkpoint_interval_ticks=8, writer_pool=pool,
            full_dump_period=9,
        ) as server:
            write_counts = []
            for _ in range(40):
                completed = server.stats.checkpoints_completed
                server.run_tick()
                server.wait_checkpoint_idle()
                if server.stats.checkpoints_completed > completed:
                    write_counts.append(
                        server.stats.last_checkpoint_write_count
                    )
            stats = server.stats
        assert stats.checkpoints_started == len(result.checkpoints) == 5
        assert write_counts == [
            record.write_count for record in result.checkpoints
            if record.completed
        ]


class CountingApp(TraceReplayApp):
    """Breaks the replay contract: what a tick writes depends on how many
    ticks this object has planned, so a replayed tick writes other values."""

    def __init__(self, trace, fail_after=None):
        super().__init__(trace)
        self._planned = 0
        self._fail_after = fail_after

    def plan_tick(self, table, rng, tick):
        self._planned += 1
        if self._fail_after is not None and self._planned > self._fail_after:
            raise RecoveryError("replay refused")
        plan = super().plan_tick(table, rng, tick)
        return TickUpdatesPlan(
            plan.rows, plan.columns, plan.values + np.uint32(self._planned)
        )


def install_store_hook(monkeypatch, make_hook):
    """Every server the harness builds gets ``make_hook(server)`` as its
    store's ``write_fault_hook``."""
    def build(*args, **kwargs):
        server = DurableGameServer(*args, **kwargs)
        server._store.write_fault_hook = make_hook(server)
        return server

    monkeypatch.setattr(harness, "DurableGameServer", build)


def hold_until_last_tick(server):
    """Holds the first flush until the 20 ticks have run, so the cut at
    tick 0 is the one that commits and recovery replays ticks 1..19."""
    def hold():
        deadline = time.monotonic() + 10.0
        while server.ticks_run < 20 and time.monotonic() < deadline:
            time.sleep(0.001)
    return hold


class TestUnmeasurableRuns:
    """A run that could not be measured raises; it is never a row of zeros."""

    def test_held_flush_is_waited_for(self, monkeypatch, tmp_path):
        install_store_hook(monkeypatch, hold_until_last_tick)
        _, durations, report = measure_engine_run(
            replay_app(), "copy-on-update", 20, tmp_path
        )
        assert len(durations) == 1
        assert (report.checkpoint_tick, report.ticks_replayed) == (0, 19)
        assert report.replay_seconds > 0

    def test_failed_flush(self, monkeypatch, tmp_path):
        def make_hook(server):
            def explode():
                raise StorageError("injected writer fault")
            return explode

        install_store_hook(monkeypatch, make_hook)
        with pytest.raises(ValidationError) as excinfo:
            measure_engine_run(replay_app(), "naive-snapshot", 20, tmp_path)
        message = str(excinfo.value)
        assert "naive-snapshot" in message and "20 ticks" in message
        assert "injected writer fault" in message

    def test_flush_held_then_failed(self, monkeypatch, tmp_path):
        """No checkpoint commits while the ticks run and the held one dies:
        the wait for the writer surfaces it, nothing is reported as 0 ms."""
        def make_hook(server):
            hold = hold_until_last_tick(server)

            def hold_then_explode():
                hold()
                raise StorageError("held flush failed")
            return hold_then_explode

        install_store_hook(monkeypatch, make_hook)
        with pytest.raises(ValidationError, match="held flush failed"):
            measure_engine_run(replay_app(), "partial-redo", 20, tmp_path)

    def test_no_checkpoint_committed(self, tmp_path):
        with pytest.raises(ValidationError, match="no checkpoint committed"):
            measure_engine_run(replay_app(), "copy-on-update", 0, tmp_path)

    def test_recovered_table_differs(self, monkeypatch, tmp_path):
        install_store_hook(monkeypatch, hold_until_last_tick)
        with pytest.raises(ValidationError, match="differs from the live"):
            measure_engine_run(
                CountingApp(zipf_trace()), "naive-snapshot", 20, tmp_path
            )

    def test_recovery_raises(self, monkeypatch, tmp_path):
        install_store_hook(monkeypatch, hold_until_last_tick)
        with pytest.raises(ValidationError, match="replay refused") as excinfo:
            measure_engine_run(
                CountingApp(zipf_trace(), fail_after=20),
                "naive-snapshot", 20, tmp_path,
            )
        assert "naive-snapshot" in str(excinfo.value)


def test_no_second_real_implementation_grows_back():
    """The engine is the one real implementation: the harness only drives
    its public surface, holds no checkpointing machinery of its own, grows
    no options, and stays out of the serving path's imports."""
    retired = "Real" + "CheckpointServer"  # spelled so a grep stays clean
    assert not hasattr(repro.validation, retired)
    assert retired not in repro.validation.__all__
    assert not hasattr(harness, retired)

    engine_names, modules = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(harness))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            if node.module.startswith("repro.engine"):
                assert node.module == "repro.engine"
                engine_names.update(alias.name for alias in node.names)
    assert engine_names == {
        "DurableGameServer", "RecoveryManager", "CheckpointWriterPool",
        "TickApplication", "TickUpdatesPlan",
    }
    assert not any(
        module == "threading"
        or module.startswith(("repro.state.dirty", "repro.storage"))
        for module in modules
    )

    assert len(inspect.signature(run_validation_point).parameters) == 7
    assert len(inspect.signature(run_validation_sweep).parameters) == 6

    # What benchmarks/e2e imports must not pull this package in.
    probe = (
        "import sys, repro.engine.fleet, repro.frontend.gateway\n"
        "loaded = [m for m in sys.modules if m.startswith("
        "('repro.validation', 'repro.experiments'))]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)
