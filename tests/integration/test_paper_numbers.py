"""Integration tests pinning the paper's headline numbers at full scale.

These run the simulator with the exact Section 4.3/4.4 setup (Table 3
constants, 10M cells, Zipf skew 0.8) and assert the quantitative findings the
paper states in prose.  Tolerances are deliberately loose enough to absorb
sampling noise but tight enough that a broken cost model fails.  The last
class crashes and recovers the real engine under all six algorithms, at a
small scale.
"""

import pytest

from repro.config import PAPER_CONFIG
from repro.core.registry import ALGORITHM_KEYS
from repro.experiments import engine_recovery
from repro.experiments.common import QUICK_SCALE
from repro.simulation.simulator import CheckpointSimulator, PrecomputedObjectTrace
from repro.workloads.zipf import ZipfTrace

from dataclasses import replace


def run_at(updates_per_tick, num_ticks=120, warmup=30, skew=0.8):
    config = replace(PAPER_CONFIG, warmup_ticks=warmup)
    simulator = CheckpointSimulator(config)
    trace = PrecomputedObjectTrace(
        ZipfTrace(
            config.geometry,
            updates_per_tick=updates_per_tick,
            skew=skew,
            num_ticks=num_ticks,
            seed=0,
        )
    )
    return {r.algorithm_key: r for r in simulator.run_all(trace)}


@pytest.fixture(scope="module")
def at_64k():
    return run_at(64_000)


@pytest.fixture(scope="module")
def at_1k():
    return run_at(1_000)


@pytest.fixture(scope="module")
def at_256k():
    return run_at(256_000)


class TestSection51AverageOverhead:
    def test_naive_snapshot_085ms(self, at_64k):
        """"The average overhead of Naive-Snapshot is 0.85 msec per tick"."""
        assert at_64k["naive-snapshot"].avg_overhead == pytest.approx(
            0.85e-3, rel=0.15
        )

    def test_cou_up_to_5x_better_at_low_rates(self, at_1k):
        ratio = (
            at_1k["naive-snapshot"].avg_overhead
            / at_1k["copy-on-update"].avg_overhead
        )
        assert 2.5 < ratio < 7.0

    def test_cou_more_expensive_at_high_rates_within_2_7x(self, at_256k):
        ratio = (
            at_256k["copy-on-update"].avg_overhead
            / at_256k["naive-snapshot"].avg_overhead
        )
        assert 1.5 < ratio < 4.0

    def test_atomic_copy_vs_naive_at_256k(self, at_256k):
        """"At 256,000 updates per tick ... 1.4 msec for
        Atomic-Copy-Dirty-Objects versus 1 msec for Naive-Snapshot"."""
        atomic = at_256k["atomic-copy"].avg_overhead
        naive = at_256k["naive-snapshot"].avg_overhead
        assert atomic == pytest.approx(1.4e-3, rel=0.2)
        assert naive == pytest.approx(1.0e-3, rel=0.25)
        assert atomic > naive

    def test_eager_dirty_beats_naive_below_10k(self, at_1k):
        assert (
            at_1k["atomic-copy"].avg_overhead
            < at_1k["naive-snapshot"].avg_overhead
        )


class TestSection51CheckpointTimes:
    def test_full_state_methods_constant_068(self, at_1k, at_256k):
        """"constant checkpoint time of around 0.68 sec for all update
        rates" for the four full-state-on-disk methods."""
        for key in ("naive-snapshot", "dribble", "atomic-copy",
                    "copy-on-update"):
            for snapshot in (at_1k, at_256k):
                assert snapshot[key].avg_checkpoint_time == pytest.approx(
                    0.68, rel=0.05
                ), key

    def test_partial_redo_fast_checkpoints_at_1k(self, at_1k):
        """"At 1,000 updates per tick, Partial-Redo and
        Copy-on-Update-Partial-Redo take 0.1 sec to write a checkpoint" --
        a gain of roughly 6.8x over Naive-Snapshot."""
        for key in ("partial-redo", "cou-partial-redo"):
            checkpoint = at_1k[key].avg_checkpoint_time
            gain = at_1k["naive-snapshot"].avg_checkpoint_time / checkpoint
            assert 4.0 < gain < 14.0, key


class TestSection51RecoveryTimes:
    def test_full_state_recovery_14(self, at_64k, at_256k):
        """"reaching around 1.4 sec for all update rates"."""
        for key in ("naive-snapshot", "dribble", "atomic-copy",
                    "copy-on-update"):
            for snapshot in (at_64k, at_256k):
                assert snapshot[key].recovery_time == pytest.approx(
                    1.4, rel=0.07
                ), key

    def test_partial_redo_72_at_256k(self, at_256k):
        """"At 256,000 updates per tick, these methods spend 7.2 sec to
        recover, a value 5.4 times larger than ... Naive-Snapshot"."""
        for key in ("partial-redo", "cou-partial-redo"):
            recovery = at_256k[key].recovery_time
            assert recovery == pytest.approx(7.2, rel=0.1), key
            factor = recovery / at_256k["naive-snapshot"].recovery_time
            assert factor == pytest.approx(5.4, rel=0.15), key

    def test_partial_redo_worse_than_naive_above_4k(self):
        results = run_at(8_000, num_ticks=100, warmup=30)
        assert (
            results["partial-redo"].recovery_time
            > results["naive-snapshot"].recovery_time
        )


class TestSection52Latency:
    def test_eager_pause_17ms(self, at_64k):
        """Eager methods lengthen some tick by ~17 ms -- over half the 33 ms
        tick -- violating the latency limit."""
        for key in ("naive-snapshot", "atomic-copy", "partial-redo"):
            result = at_64k[key]
            assert result.max_overhead == pytest.approx(17e-3, rel=0.15), key
            assert result.exceeds_latency_limit(), key

    def test_cou_peak_12ms_and_within_limit(self, at_64k):
        """"The latency peak for all of these methods is 12 msec for the
        first tick after a checkpoint is started"."""
        for key in ("dribble", "copy-on-update", "cou-partial-redo"):
            result = at_64k[key]
            assert result.max_overhead == pytest.approx(12e-3, rel=0.25), key
            assert not result.exceeds_latency_limit(), key

    def test_cou_total_roughly_twice_eager_at_64k(self, at_64k):
        """"we expect copy on update methods to introduce nearly twice the
        average latency of eager copy methods" at 64k updates/tick."""
        ratio = (
            at_64k["copy-on-update"].avg_overhead
            / at_64k["atomic-copy"].avg_overhead
        )
        assert 1.5 < ratio < 3.2


class TestSection8Recommendation:
    def test_copy_on_update_is_the_best_overall(self, at_64k):
        """Recommendation 4: best in latency (no limit violations) with
        recovery no worse than Naive-Snapshot."""
        cou = at_64k["copy-on-update"]
        naive = at_64k["naive-snapshot"]
        assert not cou.exceeds_latency_limit()
        assert naive.exceeds_latency_limit()
        assert cou.recovery_time <= naive.recovery_time * 1.02


class TestEngineRecovery:
    def test_every_algorithm_recovers_bit_exactly(self, tmp_path):
        """Figure 2(c) in miniature on the real engine: every algorithm
        crashes and recovers the live table (the run raises otherwise)
        with a measured restore and replay."""
        result = engine_recovery.run(
            QUICK_SCALE.with_overrides(game_units=1_024), directory=tmp_path
        )
        assert sorted(result.raw) == sorted(ALGORITHM_KEYS)
        for key, metrics in result.raw.items():
            assert metrics["exact"], key
            assert metrics["recovery_s"] > 0, key
        assert result.raw["copy-on-update"]["restore_s"] > 0
