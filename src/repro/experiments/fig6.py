"""Figure 6: validation of the simulation model against the durable engine,
for all six algorithms (Section 6).

Replays one Zipf trace through the engine we ship and through the simulator
calibrated with this host's micro-benchmarked parameters over an
updates-per-tick sweep, and reports overhead / checkpoint / recovery for both
side by side.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.tables import TextTable
from repro.config import HardwareParameters
from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    FULL_SCALE,
    format_seconds,
)
from repro.units import format_duration, format_rate
from repro.validation.harness import ValidationComparison, run_validation_sweep
from repro.validation.microbench import measure_host_parameters


def run(
    scale: ExperimentScale = FULL_SCALE,
    hardware: Optional[HardwareParameters] = None,
    seed: int = 0,
) -> FigureResult:
    """Reproduce Figure 6 (simulation vs the engine)."""
    if hardware is None:
        hardware = measure_host_parameters(quick=(scale.name == "quick"))
    comparisons: List[ValidationComparison] = run_validation_sweep(
        updates_per_tick_values=scale.validation_sweep,
        num_ticks=scale.validation_ticks,
        hardware=hardware,
        seed=seed,
    )

    calibration = TextTable(
        "Host calibration (Table 3 parameters measured on this machine)",
        ["parameter", "measured value"],
    )
    calibration.add_row(["memory bandwidth", format_rate(hardware.memory_bandwidth)])
    calibration.add_row(["memory latency", format_duration(hardware.memory_latency)])
    calibration.add_row(["lock overhead", format_duration(hardware.lock_overhead)])
    calibration.add_row(
        ["bit test/set overhead", format_duration(hardware.bit_test_overhead)]
    )
    calibration.add_row(["disk bandwidth", format_rate(hardware.disk_bandwidth)])

    def _panel(title: str, metric: str, bit_pass: bool = False) -> TextTable:
        columns = ["algorithm", "updates/tick", "simulation"]
        if bit_pass:
            columns.append("sim bit pass")
        table = TextTable(title, columns + ["engine", "engine/sim"])
        for row in comparisons:
            simulated = getattr(row, f"simulated_{metric}")
            measured = getattr(row, f"measured_{metric}")
            cells = [
                row.algorithm_name,
                f"{row.updates_per_tick:,}",
                format_seconds(simulated),
            ]
            if bit_pass:
                cells.append(format_seconds(row.simulated_bit_time))
            cells.append(format_seconds(measured))
            cells.append(
                f"{measured / simulated:.2f}x" if simulated > 0 else "n/a"
            )
            table.add_row(cells)
        return table

    overhead = _panel(
        "Figure 6(a): overhead time, simulation vs engine",
        "overhead", bit_pass=True,
    )
    overhead.add_note(
        "like with like: the engine's ticks begin one model tick length "
        "apart; its stopwatch covers the Copy-To-Memory "
        "pause and Handle-Update's locked old-value saves, so 'simulation' "
        "is the model's pause + lock + copy time; the policy's dirty-bit "
        "pass runs outside that stopwatch and is shown as simulated only"
    )
    overhead.add_note(
        "paper: trends closely matched; Copy-on-Update implementation "
        "overhead up to 3x the simulation (lock contention and writer I/O "
        "interference are not modelled)"
    )
    checkpoint = _panel(
        "Figure 6(b): time to checkpoint, simulation vs engine", "checkpoint"
    )
    recovery = _panel(
        "Figure 6(c): recovery time, simulation vs engine", "recovery"
    )
    recovery.add_note(
        "engine: crashed straight after the last tick; measured restore "
        "plus measured replay of the ticks since the newest committed cut; "
        "simulation: restore plus one checkpoint period of replay (the "
        "paper's worst case)"
    )

    figure = FigureResult(
        experiment_id="fig6",
        description=(
            "Validation of the simulation model against the durable engine, "
            "all six algorithms"
        ),
        tables=[calibration, overhead, checkpoint, recovery],
        raw={
            "hardware": {
                "memory_bandwidth": hardware.memory_bandwidth,
                "memory_latency": hardware.memory_latency,
                "lock_overhead": hardware.lock_overhead,
                "bit_test_overhead": hardware.bit_test_overhead,
                "disk_bandwidth": hardware.disk_bandwidth,
            },
            "comparisons": [
                {
                    "algorithm": c.algorithm_key,
                    "updates_per_tick": c.updates_per_tick,
                    "simulated_overhead": c.simulated_overhead,
                    "simulated_bit_time": c.simulated_bit_time,
                    "measured_overhead": c.measured_overhead,
                    "simulated_checkpoint": c.simulated_checkpoint,
                    "measured_checkpoint": c.measured_checkpoint,
                    "simulated_recovery": c.simulated_recovery,
                    "measured_recovery": c.measured_recovery,
                }
                for c in comparisons
            ],
        },
    )
    return figure
