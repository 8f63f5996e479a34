"""Tests for the ablation and alternatives experiments (small scale)."""

import pytest

from repro.experiments import ablations, alternatives_study
from repro.experiments.common import QUICK_SCALE

SCALE = QUICK_SCALE.with_overrides(num_ticks=60, warmup_ticks=22)


class TestFullDumpPeriod:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_full_dump_period(SCALE, periods=(2, 9, 30))

    def test_recovery_monotone_in_period(self, result):
        raw = result.raw
        assert (
            raw["2:cou-partial-redo"]["recovery_s"]
            < raw["9:cou-partial-redo"]["recovery_s"]
            < raw["30:cou-partial-redo"]["recovery_s"]
        )

    def test_calibrated_period_matches_paper(self, result):
        """C = 9 reproduces the published ~7.2 s recovery at saturation."""
        assert result.raw["9:partial-redo"]["recovery_s"] == pytest.approx(
            7.2, rel=0.1
        )


class TestDiskBandwidth:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_disk_bandwidth(SCALE, bandwidths_mb=(60, 480))

    def test_checkpoint_scales_inverse_bandwidth(self, result):
        raw = result.raw
        slow = raw["60:copy-on-update"]["avg_checkpoint_s"]
        fast = raw["480:copy-on-update"]["avg_checkpoint_s"]
        assert slow / fast == pytest.approx(8.0, rel=0.02)

    def test_faster_disk_raises_cou_overhead(self, result):
        """Back-to-back checkpointing means a faster disk shortens the
        checkpoint period, so copy-on-update repays its per-checkpoint copy
        burst more often -- average overhead *rises* with disk speed."""
        raw = result.raw
        assert (
            raw["480:copy-on-update"]["avg_overhead_s"]
            > raw["60:copy-on-update"]["avg_overhead_s"]
        )


class TestTickRate:
    def test_sixty_hertz_breaks_even_cou(self):
        result = ablations.run_tick_rate(SCALE, frequencies=(30.0, 60.0))
        raw = result.raw
        assert not raw["30:copy-on-update"]["exceeds_latency_limit"]
        assert raw["60:copy-on-update"]["exceeds_latency_limit"]
        assert raw["60:naive-snapshot"]["exceeds_latency_limit"]


class TestObjectSize:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_object_size(SCALE, object_sizes=(128, 2_048))

    def test_smaller_objects_cost_more_overhead(self, result):
        raw = result.raw
        assert (
            raw["128:copy-on-update"]["avg_overhead_s"]
            > raw["2048:copy-on-update"]["avg_overhead_s"]
        )

    def test_larger_objects_write_fewer(self, result):
        raw = result.raw
        assert (
            raw["2048:copy-on-update"]["avg_objects_written"]
            < raw["128:copy-on-update"]["avg_objects_written"]
        )


class TestCheckpointInterval:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_checkpoint_interval(SCALE, intervals=(1, 12))

    def test_wider_interval_cuts_overhead(self, result):
        raw = result.raw
        assert (
            raw["12:copy-on-update"]["avg_overhead_s"]
            < 0.5 * raw["1:copy-on-update"]["avg_overhead_s"]
        )

    def test_wider_interval_costs_recovery(self, result):
        raw = result.raw
        assert (
            raw["12:copy-on-update"]["recovery_s"]
            > raw["1:copy-on-update"]["recovery_s"]
        )


class TestAlternatives:
    @pytest.fixture(scope="class")
    def result(self):
        return alternatives_study.run(SCALE)

    def test_physical_logging_infeasible_at_high_rates(self, result):
        high_rate = max(SCALE.updates_sweep)
        assert not result.raw["logging"][high_rate]["feasible"]

    def test_physical_logging_fine_at_low_rates(self, result):
        low_rate = min(SCALE.updates_sweep)
        assert result.raw["logging"][low_rate]["feasible"]

    def test_checkpoint_recovery_clears_four_nines(self, result):
        availability = result.raw["availability"]["checkpoint recovery"]
        assert availability["four_nines"]
        assert availability["utilization"] > 0.9

    def test_k_safety_utilization_cost(self, result):
        assert result.raw["availability"]["2-safe replication"][
            "utilization"
        ] == pytest.approx(0.5)
