"""Tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` from the
repository root (the tier-1 suite under ``tests/`` does not collect this
directory).
"""

from __future__ import annotations

import dataclasses
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
sys.path.insert(0, HERE)

import apps  # noqa: E402
import compare  # noqa: E402
import lifecycle  # noqa: E402
import loadgen  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.storage.double_backup import DoubleBackupStore  # noqa: E402

#: A workload small enough for a test: 100 whole objects, ~0.3 s.
TINY = workloads.Workload(
    name="tiny", backend="thread", algorithm="copy-on-update",
    shards=1, rows=1280, updates_per_tick=50, cadence=8, periods=3,
    commands_per_tick=4, recoveries=2,
)


# ----------------------------------------------------------------------
# Percentile picker
# ----------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert measure.samples_needed(99.0) == 1000
    assert measure.samples_needed(99.9) == 10000
    assert measure.supported_percentile(999, 99.0) == 95.0
    assert measure.supported_percentile(1000, 99.0) == 99.0
    assert measure.supported_percentile(10_000) == 99.9
    assert measure.supported_percentile(39) is None


def test_tail_reports_the_percentile_it_used():
    short = measure.tail(list(range(200)), wanted=99.0)
    assert short["percentile"] == 95.0
    assert short["value"] == 189  # nearest rank: ceil(0.95 * 200) = 190th
    assert measure.tail(list(range(2000)))["percentile"] == 99.0


def test_summarize_scales_each_segment_by_its_own_host_speed():
    # Second half of the run on a host twice as slow: raw doubles, the
    # reading at reference speed does not.
    values = [1.0] * 120 + [2.0] * 120
    times = list(range(240))
    summary = measure.summarize(
        values, measure.median_of, times,
        lambda begin, end: 1.0 if end < 120 else 2.0,
    )
    assert summary["segments"] == 6 and summary["samples"] == 240
    assert summary["q1"] == summary["value"] == summary["q3"] == 1.0
    assert summary["raw"] == 1.5
    # A wait on a timer is no CPU work: only the part beyond it is scaled.
    timed = measure.summarize(
        [3.0] * 120 + [5.0] * 120, measure.median_of, times,
        lambda begin, end: 1.0 if end < 120 else 2.0, fixed=1.0,
    )
    assert timed["q1"] == timed["value"] == timed["q3"] == 3.0


def test_period_maxima_drops_the_partial_period():
    assert measure.period_maxima([1, 9, 2, 3, 4, 8, 7], 3) == [9, 8]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    thread = [
        spans.Span("tick", 0.0, 10.0, -1, 0, None, None),
        spans.Span("plan", 1.0, 3.0, 0, 0, None, None),
        spans.Span("apply", 3.0, 8.0, 0, 0, None, None),
        spans.Span("unique", 4.0, 5.0, 2, 0, None, None),
    ]
    assert spans.self_seconds(thread) == [3.0, 2.0, 4.0, 1.0]


def test_recorder_nests_restores_and_skips_missing_callables():
    module = types.ModuleType("e2e_fake_layer")

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    module.Layer = Layer
    sys.modules[module.__name__] = module
    recorder = spans.SpanRecorder()
    try:
        assert recorder.wrap(module.__name__, "Layer", "outer", "layer.outer")
        assert recorder.wrap(module.__name__, "Layer", "inner", "layer.inner")
        assert not recorder.wrap(module.__name__, "Layer", "gone", "layer.gone")
        assert Layer().outer() == 42
    finally:
        recorder.restore()
        del sys.modules[module.__name__]
    assert recorder.absent == ["layer.gone"]
    assert "__wrapped__" not in vars(Layer.outer)
    (thread,) = recorder.threads()
    assert [s.name for s in thread] == ["layer.outer", "layer.inner"]
    assert thread[1].parent == 0 and thread[0].parent == -1
    assert thread[1].result == 41
    assert thread[0].start <= thread[1].start <= thread[1].end <= thread[0].end


# ----------------------------------------------------------------------
# Open-loop schedule
# ----------------------------------------------------------------------


def test_due_times_depend_on_the_clock_alone():
    assert np.allclose(loadgen.due_offsets(50, 1000.0),
                       np.arange(50) / 1000.0)
    assert loadgen.due_count(50, 1000.0, -0.1) == 0
    assert loadgen.due_count(50, 1000.0, 0.0) == 1
    assert loadgen.due_count(50, 1000.0, 0.0105) == 11
    assert loadgen.due_count(50, 1000.0, 10.0) == 50
    # Lane l of SESSIONS carries stream positions l, l + SESSIONS, ...
    assert [loadgen.lane_due_count(5, lane) for lane in range(2)] == [3, 2]


def test_ledger_maps_lane_seqs_to_stream_positions():
    ledger = workloads.CommandLedger(8)
    ledger.due_at = np.arange(8) * 1.0
    ledger.sent(1, 0, 3, 10.0)            # lane 1: positions 1, 3, 5
    assert np.flatnonzero(~np.isnan(ledger.sent_at)).tolist() == [1, 3, 5]
    ledger.applied(1, 1, 2, tick=4, now=20.0)   # seqs 1..2 -> positions 1, 3
    assert ledger.unacked() == 1
    assert ledger.latencies().tolist() == [19.0, 17.0]
    assert ledger.acked_due_times().tolist() == [1.0, 3.0]
    assert ledger.worst_latency_per_period(cadence=4) == [19.0]


def test_in_process_commands_are_fixed_work_due_at_their_tick(tmp_path):
    """In process, commands are a function of the tick count alone: each
    tick's batch comes due before that fleet tick starts and is acked after
    it ends, whatever the ticks took; and the run verifies."""
    result = lifecycle.run_lifecycle(
        TINY, seed=5, workdir=str(tmp_path / "work"), deadline_seconds=30.0,
        setups=1, exclude_pids=[],
    )
    assert result.correct, result.checks
    serve, ledger = result.serve, result.serve.ledger
    assert result.failed == 0
    assert serve.ticks_timed == TINY.timed_ticks
    assert len(ledger.due_at) == TINY.timed_ticks * TINY.commands_per_tick
    assert result.attempted == (TINY.timed_ticks + len(ledger.due_at)
                                + TINY.recoveries)
    due = ledger.due_at.reshape(TINY.timed_ticks, TINY.commands_per_tick)
    acked = ledger.acked_at.reshape(due.shape)
    started = np.array(serve.tick_started)
    assert (due == due[:, :1]).all() and (acked == acked[:, :1]).all()
    assert (due[:, 0] <= started).all()
    assert (started + np.array(serve.tick_seconds) <= acked[:, 0]).all()
    assert (ledger.lateness() >= 0).all()
    assert len(serve.commits) >= TINY.periods


# ----------------------------------------------------------------------
# Verification must fail on a corrupt image
# ----------------------------------------------------------------------


def test_one_flipped_byte_in_the_image_fails_verification(tmp_path):
    directory = str(tmp_path / "fleet")
    shard_apps = workloads.build_apps(TINY, seed=9)
    fleet = workloads.build_fleet(TINY, shard_apps, directory, seed=9)
    ticks = TINY.cadence * 2 + 3
    assert fleet.try_run_ticks(ticks).ok
    fleet.quiesce()
    fleet.crash()
    (log_path,) = workloads.log_paths(directory)
    expected = [apps.oracle_digest(
        shard_apps[0], 9, workloads.read_log(log_path))]

    def failures() -> int:
        return workloads.time_recoveries(
            TINY, shard_apps, directory, 9, expected, ticks, count=1,
        ).failures

    assert failures() == 0
    # The last byte of each backup is the last cell's high byte: the image
    # holds whole objects only (1280 rows = 100 objects) and the replayed
    # tail does not write that cell.
    for name in DoubleBackupStore.FILE_NAMES:
        path = os.path.join(os.path.dirname(log_path), name)
        with open(path, "r+b") as backup:
            backup.seek(-1, os.SEEK_END)
            byte = backup.read(1)
            backup.seek(-1, os.SEEK_END)
            backup.write(bytes([byte[0] ^ 0x01]))
    assert failures() == 1


def test_acked_but_unlogged_commands_are_counted():
    logged = apps.command_keys(np.array([[1, 2], [3, 4], [5, 6]]))
    assert apps.commands_not_logged(logged[:2], logged) == 0
    twice = apps.command_keys(np.array([[1, 2], [1, 2], [9, 9]]))
    assert apps.commands_not_logged(twice, logged) == 2
    assert apps.commands_not_logged(twice, logged[:0]) == 3


def test_recovery_matches_the_oracle_on_the_process_backend(tmp_path):
    spec = dataclasses.replace(TINY, backend="process", shards=2,
                               algorithm="partial-redo")
    result = lifecycle.run_lifecycle(
        spec, seed=2, workdir=str(tmp_path / "work"), deadline_seconds=30.0,
        setups=1, exclude_pids=[],
    )
    assert result.correct, result.checks
    assert result.checks["no_shm_leak"] and result.checks["no_process_leak"]


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("before, after, better, expected", [
    ({"value": 10.0}, {"value": 10.9}, "lower", "within-bound"),
    ({"value": 10.0}, {"value": 11.1}, "lower", "regressed"),
    ({"value": 10.0}, {"value": 8.0}, "lower", "within-bound"),
    ({"value": 100.0}, {"value": 89.0}, "higher", "regressed"),
    ({"value": 10.0, "q1": 9.0, "q3": 11.0}, {"value": 10.2}, "lower",
     "unresolved"),
    # Medians 12% apart, but the quartiles of the two records overlap.
    ({"value": 10.0, "q1": 9.8, "q3": 10.6}, {"value": 11.2, "q1": 10.9},
     "lower", "unresolved"),
    ({"value": 10.0, "q1": 9.8, "q3": 10.1}, {"value": 11.4, "q1": 11.3},
     "lower", "regressed"),
])
def test_verdict(before, after, better, expected):
    assert compare.verdict(before, after, better, bound=0.10) == expected


def test_scaled_metric_is_unresolved_when_host_speeds_differ():
    before, after = {"value": 10.0, "scaled": True}, {"value": 20.0}
    assert compare.verdict(before, after, "lower", 0.10,
                           host_speeds=(1.0, 1.05)) == "regressed"
    assert compare.verdict(before, after, "lower", 0.10,
                           host_speeds=(1.0, 1.2)) == "unresolved"
    before["scaled"] = False
    assert compare.verdict(before, after, "lower", 0.10,
                           host_speeds=(1.0, 1.2)) == "regressed"
