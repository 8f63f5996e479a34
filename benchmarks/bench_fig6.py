"""Regenerate Figure 6: validation against the durable engine, six algorithms.

These benchmarks run the engine's game thread (paced at the model's tick
length), its pool writer and real file I/O, so absolute numbers are
host-dependent; the assertions check the paper's validation *claims* for its
two algorithms -- Copy-on-Update's overhead within an order of magnitude of
the calibrated model (the paper saw up to 3x), time to checkpoint within
0.05-20x -- and that every row of the other four was measured.
"""

import pytest
from conftest import run_once

from repro.experiments import fig6
from repro.validation.microbench import measure_host_parameters


#: The two algorithms the paper's own Section 6 implements; its "trends
#: match, up to 3x" claim -- and so the ratio bounds below -- are about these.
#: The other four are reported, and must have been measured.
PAPER_VALIDATED = ("naive-snapshot", "copy-on-update")


@pytest.fixture(scope="module")
def host_hardware():
    return measure_host_parameters(quick=True)


@pytest.fixture(scope="module")
def shared():
    return {}


def _run(bench_scale, hardware):
    return fig6.run(bench_scale, hardware=hardware)


def test_fig6a(benchmark, bench_scale, report_sink, host_hardware, shared):
    """Figure 6(a): overhead, simulation vs engine."""
    result = run_once(benchmark, _run, bench_scale, host_hardware)
    shared["result"] = result
    report_sink("fig6a", result.tables[0].render() + "\n\n"
                + result.tables[1].render())
    for row in result.raw["comparisons"]:
        assert row["measured_overhead"] > 0
        if row["algorithm"] == "copy-on-update":
            # Measured within an order of magnitude of the calibrated model
            # (the paper saw up to 3x on 2009 hardware).
            ratio = row["measured_overhead"] / max(
                row["simulated_overhead"], 1e-9
            )
            assert 0.1 < ratio < 10.0


def test_fig6b(benchmark, bench_scale, report_sink, host_hardware, shared):
    """Figure 6(b): time to checkpoint, simulation vs engine."""
    if "result" in shared:
        result = shared["result"]
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    else:
        result = run_once(benchmark, _run, bench_scale, host_hardware)
        shared["result"] = result
    report_sink("fig6b", result.tables[2].render())
    for row in result.raw["comparisons"]:
        assert row["measured_checkpoint"] > 0
        assert row["simulated_checkpoint"] > 0
        if row["algorithm"] in PAPER_VALIDATED:
            ratio = row["measured_checkpoint"] / row["simulated_checkpoint"]
            assert 0.05 < ratio < 20.0


def test_fig6c(benchmark, bench_scale, report_sink, host_hardware, shared):
    """Figure 6(c): recovery time, simulation vs engine."""
    if "result" in shared:
        result = shared["result"]
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    else:
        result = run_once(benchmark, _run, bench_scale, host_hardware)
        shared["result"] = result
    report_sink("fig6c", result.tables[3].render())
    for row in result.raw["comparisons"]:
        assert row["measured_recovery"] > 0
        assert row["simulated_recovery"] > 0
