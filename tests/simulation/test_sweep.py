"""Tests for the serial sweep."""

import pytest

from repro.config import small_config
from repro.errors import SimulationError
from repro.experiments import fig2
from repro.experiments.common import QUICK_SCALE
from repro.simulation.simulator import CheckpointSimulator
from repro.simulation.sweep import SweepTask, run_sweep
from repro.workloads import reduced as reduced_module
from repro.workloads.reduced import PrecomputedObjectTrace
from repro.workloads.zipf import ZipfTrace

TINY_SCALE = QUICK_SCALE.with_overrides(
    num_ticks=25, warmup_ticks=5, updates_sweep=(200, 800)
)


@pytest.fixture
def config():
    return small_config(warmup_ticks=5)


def make_trace(config, **params):
    defaults = dict(updates_per_tick=100, skew=0.8, num_ticks=10, seed=0)
    defaults.update(params)
    return ZipfTrace(config.geometry, **defaults)


def make_task(config, key="point", algorithms=("naive-snapshot",), **params):
    return SweepTask(
        key=key,
        config=config,
        trace=make_trace(config, **params),
        algorithms=tuple(algorithms),
    )


def summaries(results):
    return {
        key: [r.summary() for r in row] for key, row in results.items()
    }


@pytest.fixture
def reductions(monkeypatch):
    """Counts calls of the trace reduction, by the geometry reduced."""
    calls = []
    original = reduced_module._reduce_trace

    def counting(trace):
        calls.append(trace.geometry)
        return original(trace)

    monkeypatch.setattr(reduced_module, "_reduce_trace", counting)
    return calls


class TestSweepTask:
    def test_requires_algorithms(self, config):
        with pytest.raises(SimulationError):
            SweepTask(key="k", config=config, trace=make_trace(config),
                      algorithms=())


class TestRunSweep:
    def test_rejects_duplicate_keys(self, config):
        tasks = [make_task(config, key="same"), make_task(config, key="same")]
        with pytest.raises(SimulationError, match="unique"):
            run_sweep(tasks)

    def test_runs_all_algorithms_in_order(self, config):
        algorithms = ("copy-on-update", "naive-snapshot")
        results = run_sweep([make_task(config, algorithms=algorithms)])
        row = results["point"]
        assert [r.algorithm_key for r in row] == list(algorithms)

    def test_results_in_task_order(self, config):
        tasks = [make_task(config, key=key, seed=seed)
                 for seed, key in enumerate(("c", "a", "b"))]
        assert list(run_sweep(tasks)) == ["c", "a", "b"]

    def test_empty_task_list(self):
        assert run_sweep([]) == {}

    def test_identical_to_direct_simulator_runs(self, config):
        algorithms = ("naive-snapshot", "copy-on-update", "partial-redo")
        tasks = [
            make_task(config, key=rate, updates_per_tick=rate,
                      algorithms=algorithms)
            for rate in (100, 400)
        ]
        direct = {
            rate: CheckpointSimulator(config).run_all(
                make_trace(config, updates_per_tick=rate), algorithms
            )
            for rate in (100, 400)
        }
        assert summaries(run_sweep(tasks)) == summaries(direct)

    def test_shared_trace_reduced_once(self, config, reductions):
        trace = make_trace(config)
        tasks = [
            SweepTask(key=period, trace=trace,
                      config=small_config(warmup_ticks=5,
                                          full_dump_period=period),
                      algorithms=("partial-redo",))
            for period in (2, 5, 9)
        ]
        tasks.append(make_task(config, key="other", seed=1))
        results = run_sweep(tasks)
        assert len(results) == 4
        assert len(reductions) == 2

    def test_precomputed_trace_used_as_given(self, config, reductions):
        reduced = PrecomputedObjectTrace(make_trace(config))
        reduced.arrays()
        assert len(reductions) == 1
        task = SweepTask(key="t", config=config, trace=reduced,
                         algorithms=("naive-snapshot", "dribble"))
        via_reduced = run_sweep([task])
        assert len(reductions) == 1
        via_trace = run_sweep([make_task(
            config, key="t", algorithms=("naive-snapshot", "dribble"))])
        assert summaries(via_reduced) == summaries(via_trace)


class TestFig2Sweep:
    def test_fig2_sweep_covers_every_rate(self, config, reductions):
        results = fig2.sweep_results(TINY_SCALE, config=config)
        assert sorted(results) == [200, 800]
        assert all(len(row) == 6 for row in results.values())
        assert len(reductions) == 2
