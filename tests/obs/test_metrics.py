"""Unit tests for the lock-light metrics rows."""

import numpy as np
import pytest

from repro.obs.metrics import (
    DURATION_BUCKETS_US,
    Histogram,
    HistogramSnapshot,
    MetricSpec,
    MetricsError,
    MetricsLayout,
    RowMetrics,
    global_registry,
    merge_histograms,
    reset_global_registry,
)

LAYOUT = MetricsLayout([
    MetricSpec("ticks", "counter"),
    MetricSpec("lag", "gauge"),
    MetricSpec("tick_us", "histogram", (100, 200, 400)),
])


class TestLayout:
    def test_field_offsets_and_width(self):
        assert LAYOUT.offset("ticks") == 0
        assert LAYOUT.offset("lag") == 1
        assert LAYOUT.offset("tick_us") == 2
        # 3 bounded buckets + overflow + count + sum
        assert LAYOUT.num_fields == 2 + 6

    def test_duplicate_name_rejected(self):
        with pytest.raises(MetricsError, match="duplicate"):
            MetricsLayout([MetricSpec("x"), MetricSpec("x")])

    def test_unknown_metric_rejected(self):
        with pytest.raises(MetricsError, match="no metric"):
            LAYOUT.offset("nope")

    def test_histogram_needs_ascending_bounds(self):
        with pytest.raises(MetricsError, match="ascend"):
            MetricSpec("h", "histogram", (200, 100))
        with pytest.raises(MetricsError, match="needs buckets"):
            MetricSpec("h", "histogram")

    def test_scalar_takes_no_buckets(self):
        with pytest.raises(MetricsError, match="no buckets"):
            MetricSpec("c", "counter", (1, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(MetricsError, match="unknown metric kind"):
            MetricSpec("x", "summary")

    def test_slot_spec_shape(self):
        name, shape, dtype = LAYOUT.slot_spec()
        assert name == "obs_metrics"
        assert shape == (LAYOUT.num_fields,)
        assert dtype == np.dtype(np.int64)


class TestScalars:
    def test_counter_inc_and_value(self):
        row = RowMetrics(LAYOUT)
        counter = row.counter("ticks")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert row.value("ticks") == 6

    def test_gauge_set_and_max(self):
        gauge = RowMetrics(LAYOUT).gauge("lag")
        gauge.set(7)
        gauge.max(3)  # lower: ignored
        assert gauge.value == 7
        gauge.max(11)
        assert gauge.value == 11

    def test_kind_mismatch_rejected(self):
        row = RowMetrics(LAYOUT)
        with pytest.raises(MetricsError, match="is a gauge"):
            row.counter("lag")
        with pytest.raises(MetricsError, match="use histogram"):
            row.value("tick_us")


class TestHistogram:
    def test_bucketing_and_overflow(self):
        hist = RowMetrics(LAYOUT).histogram("tick_us")
        for value in (50, 150, 300, 9999):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.sum == 50 + 150 + 300 + 9999
        assert hist.mean == pytest.approx(hist.sum / 4)

    def test_percentile_interpolates_within_bucket(self):
        hist = RowMetrics(LAYOUT).histogram("tick_us")
        for _ in range(100):
            hist.observe(150)  # all in the (100, 200] bucket
        p50 = hist.percentile(0.50)
        assert 100 <= p50 <= 200

    def test_percentile_overflow_saturates_at_last_bound(self):
        hist = RowMetrics(LAYOUT).histogram("tick_us")
        for _ in range(10):
            hist.observe(10_000)
        assert hist.percentile(0.99) == 400.0

    def test_percentile_empty_is_zero(self):
        hist = RowMetrics(LAYOUT).histogram("tick_us")
        assert hist.percentile(0.99) == 0.0

    def test_percentile_fraction_bounds(self):
        hist = RowMetrics(LAYOUT).histogram("tick_us")
        with pytest.raises(MetricsError, match="fraction"):
            hist.percentile(99)

    def test_snapshot_detaches(self):
        hist = RowMetrics(LAYOUT).histogram("tick_us")
        hist.observe(150)
        snap = hist.snapshot()
        hist.observe(150)
        assert snap.count == 1
        assert hist.count == 2
        assert snap.percentile(0.5) == hist.percentile(0.5)

    def test_merge(self):
        rows = [RowMetrics(LAYOUT), RowMetrics(LAYOUT)]
        rows[0].histogram("tick_us").observe(150)
        rows[1].histogram("tick_us").observe(300)
        merged = merge_histograms([
            rows[0].histogram("tick_us").snapshot(),
            rows[1].histogram("tick_us").snapshot(),
        ])
        assert merged.count == 2
        assert merged.sum == 450

    def test_merge_bound_mismatch_rejected(self):
        one = HistogramSnapshot((100,), (1, 0), 1, 50)
        other = HistogramSnapshot((200,), (1, 0), 1, 50)
        with pytest.raises(MetricsError, match="different bounds"):
            one.merge(other)

    def test_merge_empty_is_none(self):
        assert merge_histograms([]) is None


class TestRegistry:
    def test_rows_are_independent(self):
        table = np.zeros((3, LAYOUT.num_fields), dtype=np.int64)
        rows = [RowMetrics(LAYOUT, table[index]) for index in range(3)]
        rows[1].counter("ticks").inc(9)
        assert rows[0].value("ticks") == 0
        assert rows[1].value("ticks") == 9
        assert RowMetrics(LAYOUT).value("ticks") == 0

    def test_from_array_shares_storage(self):
        array = np.zeros(LAYOUT.num_fields, dtype=np.int64)
        writer = RowMetrics(LAYOUT, array)
        scraper = RowMetrics(LAYOUT, array)
        writer.counter("ticks").inc(4)
        assert scraper.value("ticks") == 4

    def test_from_array_shape_and_dtype_checked(self):
        with pytest.raises(MetricsError, match="shape"):
            RowMetrics(LAYOUT, np.zeros((1, LAYOUT.num_fields), np.int64))
        with pytest.raises(MetricsError, match="int64"):
            RowMetrics(LAYOUT, np.zeros(LAYOUT.num_fields, np.float64))

    def test_row_snapshot_types(self):
        row = RowMetrics(LAYOUT)
        row.counter("ticks").inc()
        row.histogram("tick_us").observe(150)
        snap = row.snapshot()
        assert snap["ticks"] == 1
        assert isinstance(snap["tick_us"], HistogramSnapshot)


class TestGlobalRegistry:
    def test_reset_gives_fresh_row(self):
        reset_global_registry()
        global_registry().counter("recoveries_completed").inc()
        assert global_registry().value("recoveries_completed") == 1
        reset_global_registry()
        assert global_registry().value("recoveries_completed") == 0

    def test_duration_buckets_ascend(self):
        assert list(DURATION_BUCKETS_US) == sorted(set(DURATION_BUCKETS_US))


def test_standalone_histogram_wrapper():
    """The bench harness builds Histograms over bare arrays; keep that."""
    row = np.zeros(len(DURATION_BUCKETS_US) + 3, dtype=np.int64)
    hist = Histogram(row, 0, DURATION_BUCKETS_US)
    hist.observe(750)
    assert hist.count == 1
    assert 500 <= hist.percentile(0.5) <= 1000
