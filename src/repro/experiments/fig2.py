"""Figure 2: scaling on the number of updates per tick.

Three panels over the Zipf workload (skew 0.8, 10M cells):

* (a) average overhead time per tick,
* (b) average time to checkpoint,
* (c) estimated recovery time,

for all six algorithms, updates/tick from 1,000 to 256,000.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.analysis.ascii_chart import line_chart
from repro.analysis.tables import TextTable
from repro.config import PAPER_CONFIG, SimulationConfig
from repro.core.registry import ALGORITHM_KEYS, algorithm_class
from repro.experiments.common import (
    DEFAULT_SKEW,
    ExperimentScale,
    FigureResult,
    FULL_SCALE,
    format_seconds,
)
from repro.simulation.sweep import SweepTask, run_sweep
from repro.workloads.zipf import ZipfTrace


def sweep_results(
    scale: ExperimentScale,
    config: SimulationConfig = PAPER_CONFIG,
    skew: float = DEFAULT_SKEW,
    seed: int = 0,
) -> Dict[int, List]:
    """Run all six algorithms at every update rate; returns rate -> results."""
    config = replace(config, warmup_ticks=scale.warmup_ticks)
    tasks = [
        SweepTask(
            key=updates_per_tick,
            config=config,
            trace=ZipfTrace(
                config.geometry,
                updates_per_tick=updates_per_tick,
                skew=skew,
                num_ticks=scale.num_ticks,
                seed=seed,
            ),
        )
        for updates_per_tick in scale.updates_sweep
    ]
    return run_sweep(tasks)


def _panel_table(
    panel: str,
    title: str,
    results: Dict[int, List],
    metric,
) -> TextTable:
    rates = sorted(results)
    table = TextTable(
        title, ["algorithm"] + [f"{rate:,}" for rate in rates]
    )
    for index, key in enumerate(ALGORITHM_KEYS):
        name = algorithm_class(key).name
        row = [name]
        for rate in rates:
            row.append(format_seconds(metric(results[rate][index])))
        table.add_row(row)
    return table


def _panel_chart(title: str, results: Dict[int, List], metric) -> str:
    rates = sorted(results)
    series = {}
    for index, key in enumerate(ALGORITHM_KEYS):
        name = algorithm_class(key).name
        series[name] = [max(metric(results[rate][index]), 1e-7) for rate in rates]
    return line_chart(
        rates, series, log_x=True, log_y=True, title=title, y_label="sec"
    )


def run(
    scale: ExperimentScale = FULL_SCALE,
    seed: int = 0,
) -> FigureResult:
    """Reproduce Figure 2 (all three panels)."""
    results = sweep_results(scale, seed=seed)

    overhead_table = _panel_table(
        "a", "Figure 2(a): updates per tick vs avg overhead time",
        results, lambda r: r.avg_overhead,
    )
    overhead_table.add_note(
        "paper: Naive-Snapshot flat at ~0.85 ms; copy-on-update methods up to "
        "5x lower below 8,000 updates/tick, up to 2.7x higher above"
    )
    overhead_table.add_note(
        "paper @256k: Atomic-Copy-Dirty-Objects 1.4 ms vs Naive-Snapshot 1.0 ms"
    )

    checkpoint_table = _panel_table(
        "b", "Figure 2(b): updates per tick vs avg time to checkpoint",
        results, lambda r: r.avg_checkpoint_time,
    )
    checkpoint_table.add_note(
        "paper: full-state methods constant ~0.68 s; Partial-Redo methods "
        "0.1 s at 1,000 updates/tick (6.8x gain)"
    )

    recovery_table = _panel_table(
        "c", "Figure 2(c): updates per tick vs estimated recovery time",
        results, lambda r: r.recovery_time,
    )
    recovery_table.add_note(
        "paper: full-state methods ~1.4 s for all rates; Partial-Redo methods "
        "7.2 s at 256,000 updates/tick (5.4x worse than Naive-Snapshot)"
    )

    figure = FigureResult(
        experiment_id="fig2",
        description=(
            "Overhead, checkpoint, and recovery times when scaling the "
            "number of updates per tick (Zipf skew 0.8, 10M cells)"
        ),
        tables=[overhead_table, checkpoint_table, recovery_table],
        charts=[
            _panel_chart("Figure 2(a) overhead [s]", results,
                         lambda r: r.avg_overhead),
            _panel_chart("Figure 2(b) checkpoint [s]", results,
                         lambda r: r.avg_checkpoint_time),
            _panel_chart("Figure 2(c) recovery [s]", results,
                         lambda r: r.recovery_time),
        ],
    )
    figure.raw = {
        rate: {r.algorithm_key: r.summary() for r in runs}
        for rate, runs in results.items()
    }
    return figure
