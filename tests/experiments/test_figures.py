"""Tests for the figure drivers (qualitative paper findings at test scale)."""

import pytest

from repro.config import HardwareParameters
from repro.experiments import fig2, fig3, fig4, fig5, fig6
from repro.experiments.common import QUICK_SCALE

#: Trimmed further for test runtime; warmup skips the cold-start checkpoint.
TEST_SCALE = QUICK_SCALE.with_overrides(
    num_ticks=70,
    warmup_ticks=25,
    updates_sweep=(1_000, 64_000),
    skew_sweep=(0.0, 0.99),
    game_units=4_096,
    validation_ticks=12,
    validation_sweep=(500,),
)


@pytest.fixture(scope="module")
def fig2_result():
    return fig2.run(TEST_SCALE)


class TestFig2:
    def test_three_tables_and_charts(self, fig2_result):
        assert len(fig2_result.tables) == 3
        assert len(fig2_result.charts) == 3

    def test_naive_snapshot_flat(self, fig2_result):
        raw = fig2_result.raw
        low = raw[1_000]["naive-snapshot"]["avg_overhead_s"]
        high = raw[64_000]["naive-snapshot"]["avg_overhead_s"]
        assert high == pytest.approx(low, rel=0.05)

    def test_cou_beats_naive_at_low_rates(self, fig2_result):
        raw = fig2_result.raw[1_000]
        assert raw["copy-on-update"]["avg_overhead_s"] < raw[
            "naive-snapshot"
        ]["avg_overhead_s"]

    def test_naive_beats_cou_at_high_rates(self, fig2_result):
        raw = fig2_result.raw[64_000]
        assert raw["naive-snapshot"]["avg_overhead_s"] < raw[
            "copy-on-update"
        ]["avg_overhead_s"]

    def test_full_state_checkpoint_constant(self, fig2_result):
        for key in ("naive-snapshot", "dribble", "copy-on-update"):
            low = fig2_result.raw[1_000][key]["avg_checkpoint_s"]
            high = fig2_result.raw[64_000][key]["avg_checkpoint_s"]
            assert high == pytest.approx(low, rel=0.05), key
            assert high == pytest.approx(0.68, rel=0.05), key

    def test_partial_redo_checkpoint_grows(self, fig2_result):
        low = fig2_result.raw[1_000]["partial-redo"]["avg_checkpoint_s"]
        high = fig2_result.raw[64_000]["partial-redo"]["avg_checkpoint_s"]
        assert low < 0.3 * high

    def test_partial_redo_recovery_worst_at_high_rates(self, fig2_result):
        raw = fig2_result.raw[64_000]
        pr = raw["partial-redo"]["recovery_s"]
        ns = raw["naive-snapshot"]["recovery_s"]
        assert pr > 4 * ns

    def test_full_state_recovery_near_paper(self, fig2_result):
        for key in ("naive-snapshot", "dribble", "copy-on-update"):
            value = fig2_result.raw[64_000][key]["recovery_s"]
            assert value == pytest.approx(1.4, rel=0.08), key


@pytest.fixture(scope="module")
def fig3_result():
    return fig3.run(TEST_SCALE.with_overrides(num_ticks=120, warmup_ticks=30))


class TestFig3:
    def test_eager_methods_violate_latency_limit(self, fig3_result):
        raw = fig3_result.raw["results"]
        for key in ("naive-snapshot", "atomic-copy", "partial-redo"):
            assert raw[key]["exceeds_latency_limit"], key

    def test_cou_methods_respect_latency_limit(self, fig3_result):
        raw = fig3_result.raw["results"]
        for key in ("dribble", "copy-on-update", "cou-partial-redo"):
            assert not raw[key]["exceeds_latency_limit"], key

    def test_eager_peak_matches_paper_17ms(self, fig3_result):
        raw = fig3_result.raw["results"]
        assert raw["naive-snapshot"]["max_overhead_s"] == pytest.approx(
            0.018, rel=0.1
        )

    def test_cou_peak_near_paper_12ms(self, fig3_result):
        raw = fig3_result.raw["results"]
        assert raw["copy-on-update"]["max_overhead_s"] == pytest.approx(
            0.012, rel=0.2
        )

    def test_cou_overhead_decays_after_checkpoint(self, fig3_result):
        decay = fig3_result.raw["cou_decay_ms"]
        assert len(decay) >= 3
        assert decay[0] > decay[1] > decay[2]


@pytest.fixture(scope="module")
def fig4_result():
    return fig4.run(TEST_SCALE)


class TestFig4:
    def test_naive_snapshot_unaffected_by_skew(self, fig4_result):
        low = fig4_result.raw[0.0]["naive-snapshot"]["avg_overhead_s"]
        high = fig4_result.raw[0.99]["naive-snapshot"]["avg_overhead_s"]
        assert high == pytest.approx(low, rel=0.05)

    def test_cou_benefits_from_extreme_skew(self, fig4_result):
        """Section 5.3: extreme skew shrinks the updated portion (to ~84% in
        the paper), saving copy-on-update locks and copies."""
        uniform = fig4_result.raw[0.0]["copy-on-update"]["avg_overhead_s"]
        skewed = fig4_result.raw[0.99]["copy-on-update"]["avg_overhead_s"]
        assert skewed < uniform

    def test_extreme_skew_shrinks_dirty_set(self, fig4_result):
        uniform_k = fig4_result.raw[0.0]["copy-on-update"]["avg_objects_written"]
        skewed_k = fig4_result.raw[0.99]["copy-on-update"]["avg_objects_written"]
        assert skewed_k < uniform_k

    def test_partial_redo_recovery_shrinks_with_skew(self, fig4_result):
        """Paper: 7.3 s at low skew down to ~6.3 s at 0.99."""
        uniform = fig4_result.raw[0.0]["partial-redo"]["recovery_s"]
        skewed = fig4_result.raw[0.99]["partial-redo"]["recovery_s"]
        assert skewed < uniform
        # And it stays far above the full-image methods.
        assert skewed > 3 * fig4_result.raw[0.99]["naive-snapshot"]["recovery_s"]


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(
            TEST_SCALE.with_overrides(num_ticks=60, warmup_ticks=20),
            source="gamelike",
        )

    def test_trace_statistics_match_table5(self, result):
        assert result.raw["trace"]["rows"] == 400_128
        assert result.raw["trace"]["columns"] == 13
        assert result.raw["trace"]["avg_updates_per_tick"] == pytest.approx(
            35_590, rel=0.07
        )

    def test_partial_redo_recovery_worst(self, result):
        raw = result.raw["results"]
        assert raw["cou-partial-redo"]["recovery_s"] > raw[
            "copy-on-update"
        ]["recovery_s"]
        assert raw["partial-redo"]["recovery_s"] > raw[
            "atomic-copy"
        ]["recovery_s"]

    def test_game_source_runs(self):
        result = fig5.run(
            TEST_SCALE.with_overrides(num_ticks=40, warmup_ticks=10,
                                      game_units=2_048),
            source="game",
        )
        assert result.raw["trace"]["rows"] == 2_048

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            fig5.run(TEST_SCALE, source="bogus")


class TestFig6:
    def test_runs_with_fixed_hardware(self):
        hardware = HardwareParameters(
            memory_bandwidth=8e9,
            memory_latency=200e-9,
            lock_overhead=100e-9,
            bit_test_overhead=5e-9,
            disk_bandwidth=200e6,
        )
        result = fig6.run(TEST_SCALE, hardware=hardware)
        assert len(result.raw["comparisons"]) == 6  # 1 rate x 6 algorithms
        for comparison in result.raw["comparisons"]:
            assert comparison["measured_checkpoint"] > 0
            assert comparison["measured_recovery"] > 0

    def test_zero_denominator_prints_no_ratio(self, monkeypatch):
        """Where the model charges nothing the ratio column says so; it
        does not print ``infx``."""
        from repro.validation.harness import ValidationComparison

        free = ValidationComparison(
            "naive-snapshot", "Naive-Snapshot", 100,
            simulated_overhead=0.0, simulated_bit_time=0.0,
            measured_overhead=1e-3,
            simulated_checkpoint=1.0, measured_checkpoint=1.0,
            simulated_recovery=1.0, measured_recovery=1.0,
        )
        monkeypatch.setattr(fig6, "run_validation_sweep", lambda **_: [free])
        result = fig6.run(TEST_SCALE, hardware=HardwareParameters())
        overhead = result.tables[1].render()
        assert "n/a" in overhead
        assert "inf" not in overhead
