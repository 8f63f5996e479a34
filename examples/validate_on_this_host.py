#!/usr/bin/env python
"""Validate the simulation model on *this* machine (the paper's Section 6).

1. micro-benchmarks the host (memory bandwidth/latency, lock and bit-op
   overheads, disk bandwidth) -- the Table 3 methodology;
2. replays a Zipf trace through the durable engine under all six
   algorithms (game thread ticking at the model's 30 Hz + pool writer, real
   checkpoint files), crashes it and recovers it -- 24 runs of ``ticks``
   ticks, about 70 s at the default 90;
3. runs the simulator calibrated with the measured parameters on the same
   trace and prints both side by side.

Usage::

    python examples/validate_on_this_host.py [ticks]
"""

import sys

from repro.analysis import TextTable
from repro.experiments.common import format_seconds
from repro.units import format_duration, format_rate
from repro.validation import measure_host_parameters, run_validation_sweep


def main() -> None:
    ticks = int(sys.argv[1]) if len(sys.argv) > 1 else 90

    print("micro-benchmarking this host (a few seconds) ...")
    hardware = measure_host_parameters(quick=True)
    print(
        f"  memory bandwidth  {format_rate(hardware.memory_bandwidth)}\n"
        f"  memory latency    {format_duration(hardware.memory_latency)}\n"
        f"  lock overhead     {format_duration(hardware.lock_overhead)}\n"
        f"  bit test/set      {format_duration(hardware.bit_test_overhead)}\n"
        f"  disk bandwidth    {format_rate(hardware.disk_bandwidth)}\n"
    )

    comparisons = run_validation_sweep(
        updates_per_tick_values=(1_000, 8_000, 32_000, 64_000),
        num_ticks=ticks,
        hardware=hardware,
    )
    table = TextTable(
        "Simulation vs the durable engine (this host)",
        ["algorithm", "updates/tick",
         "overhead sim", "overhead engine",
         "checkpoint sim", "checkpoint engine",
         "recovery sim", "recovery engine"],
    )
    for row in comparisons:
        table.add_row(
            [
                row.algorithm_name,
                f"{row.updates_per_tick:,}",
                format_seconds(row.simulated_overhead),
                format_seconds(row.measured_overhead),
                format_seconds(row.simulated_checkpoint),
                format_seconds(row.measured_checkpoint),
                format_seconds(row.simulated_recovery),
                format_seconds(row.measured_recovery),
            ]
        )
    table.add_note(
        "overhead sim is the model's pause + lock + copy time, what the "
        "engine's stopwatch covers; the paper found implementation overhead "
        "up to 3x the simulation for Copy-on-Update (lock contention, writer "
        "interference) with matching trends"
    )
    print(table.render())


if __name__ == "__main__":
    main()
