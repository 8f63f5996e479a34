"""Crash recovery on the real engine: restore + replay, all six algorithms."""

from conftest import run_once

from repro.experiments import engine_recovery


def test_engine_recovery(benchmark, bench_scale, report_sink):
    """Crash + recover the real engine under all six algorithms."""
    result = run_once(benchmark, engine_recovery.run, bench_scale)
    report_sink("engine_recovery", result.render())
    raw = result.raw
    for key, metrics in raw.items():
        assert metrics["exact"], f"{key} did not recover bit-exactly"
        assert metrics["recovery_s"] > 0
    # The log-organized methods really do scan their log at restore; the
    # double-backup pair of the paper's recommendation reads one image.
    assert raw["copy-on-update"]["restore_s"] > 0
