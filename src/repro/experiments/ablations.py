"""Ablation studies beyond the paper's sweeps.

The paper fixes several design constants and names their exploration as
future work ("we plan to explore how choices for different hardware
parameters affect the performance of the various recovery algorithms").
These experiments sweep them:

* ``objsize``  -- atomic-object size ``Sobj`` (paper: one 512 B disk sector);
* ``fulldump`` -- the partial-redo full-dump period ``C`` (paper: implicit);
* ``disk``     -- disk bandwidth, from 2009 spinning rust to the RAM-SSDs the
  paper cites EVE Online buying at $90,000;
* ``tickrate`` -- 30 Hz vs 60 Hz simulation loops.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.analysis.tables import TextTable
from repro.config import (
    PAPER_CONFIG,
    PAPER_HARDWARE,
    SimulationConfig,
    StateGeometry,
)
from repro.experiments.common import (
    DEFAULT_SKEW,
    DEFAULT_UPDATES_PER_TICK,
    ExperimentScale,
    FigureResult,
    FULL_SCALE,
    format_seconds,
)
from repro.simulation.sweep import SweepTask, run_sweep
from repro.units import format_rate, megabytes
from repro.workloads.zipf import ZipfTrace


def _run_grid(
    keyed_configs: Sequence,
    algorithms,
    num_ticks: int,
    seed: int,
    updates_per_tick: int = DEFAULT_UPDATES_PER_TICK,
):
    """Run ``algorithms`` at every ``(key, config)`` point of an ablation.

    Points that share a geometry share one trace object (only the config
    differs), so the sweep generates and reduces their Zipf trace exactly
    once.  Returns ``key -> results``.
    """
    traces = {}
    tasks = []
    for key, config in keyed_configs:
        trace = traces.get(config.geometry)
        if trace is None:
            trace = traces[config.geometry] = ZipfTrace(
                config.geometry,
                updates_per_tick=updates_per_tick,
                skew=DEFAULT_SKEW,
                num_ticks=num_ticks,
                seed=seed,
            )
        tasks.append(
            SweepTask(key, config, trace, algorithms=tuple(algorithms))
        )
    return run_sweep(tasks)


def run_object_size(
    scale: ExperimentScale = FULL_SCALE,
    object_sizes: Sequence[int] = (128, 512, 2_048, 8_192),
    seed: int = 0,
) -> FigureResult:
    """Sensitivity to the atomic-object size ``Sobj``."""
    algorithms = ("naive-snapshot", "copy-on-update")
    table = TextTable(
        "Ablation: atomic-object size (64,000 updates/tick, skew 0.8)",
        ["Sobj [B]", "algorithm", "avg overhead", "time to checkpoint",
         "recovery"],
    )
    keyed_configs = []
    for object_bytes in object_sizes:
        geometry = StateGeometry(
            rows=PAPER_CONFIG.geometry.rows,
            columns=PAPER_CONFIG.geometry.columns,
            cell_bytes=PAPER_CONFIG.geometry.cell_bytes,
            object_bytes=object_bytes,
        )
        config = replace(
            PAPER_CONFIG, geometry=geometry, warmup_ticks=scale.warmup_ticks
        )
        keyed_configs.append((object_bytes, config))
    grid = _run_grid(keyed_configs, algorithms, scale.num_ticks, seed)
    raw = {}
    for object_bytes, results in grid.items():
        for result in results:
            table.add_row(
                [
                    object_bytes,
                    result.algorithm_name,
                    format_seconds(result.avg_overhead),
                    format_seconds(result.avg_checkpoint_time),
                    format_seconds(result.recovery_time),
                ]
            )
            raw[(object_bytes, result.algorithm_key)] = result.summary()
    table.add_note(
        "smaller objects cut copy volume but multiply per-object bit/lock "
        "overheads; the paper fixes Sobj to one 512 B disk sector"
    )
    return FigureResult(
        experiment_id="ablation_objsize",
        description="Atomic-object size sensitivity",
        tables=[table],
        raw={f"{size}:{key}": value for (size, key), value in raw.items()},
    )


def run_full_dump_period(
    scale: ExperimentScale = FULL_SCALE,
    periods: Sequence[int] = (2, 5, 9, 20, 50),
    seed: int = 0,
) -> FigureResult:
    """The log methods' full-dump period C: checkpoint vs recovery trade."""
    algorithms = ("partial-redo", "cou-partial-redo")
    table = TextTable(
        "Ablation: full-dump period C (64,000 updates/tick, skew 0.8)",
        ["C", "algorithm", "avg time to checkpoint", "recovery"],
    )
    keyed_configs = [
        (
            period,
            replace(
                PAPER_CONFIG,
                full_dump_period=period,
                warmup_ticks=scale.warmup_ticks,
            ),
        )
        for period in periods
    ]
    grid = _run_grid(keyed_configs, algorithms, scale.num_ticks, seed)
    raw = {}
    for period, results in grid.items():
        for result in results:
            table.add_row(
                [
                    period,
                    result.algorithm_name,
                    format_seconds(result.avg_checkpoint_time),
                    format_seconds(result.recovery_time),
                ]
            )
            raw[f"{period}:{result.algorithm_key}"] = result.summary()
    table.add_note(
        "larger C amortizes the full dump (better checkpoint time) but "
        "lengthens the log scan at restore -- the (k*C + n) term"
    )
    return FigureResult(
        experiment_id="ablation_fulldump",
        description="Partial-redo full-dump period",
        tables=[table],
        raw=raw,
    )


def run_disk_bandwidth(
    scale: ExperimentScale = FULL_SCALE,
    bandwidths_mb: Sequence[float] = (30, 60, 120, 480, 3_000),
    seed: int = 0,
) -> FigureResult:
    """Disk bandwidth sweep: 2009 disks through RAM-SSDs."""
    algorithms = ("naive-snapshot", "copy-on-update", "cou-partial-redo")
    table = TextTable(
        "Ablation: disk bandwidth (64,000 updates/tick, skew 0.8)",
        ["Bdisk", "algorithm", "time to checkpoint", "recovery"],
    )
    keyed_configs = [
        (
            bandwidth_mb,
            replace(
                PAPER_CONFIG,
                hardware=replace(
                    PAPER_HARDWARE, disk_bandwidth=megabytes(bandwidth_mb)
                ),
                warmup_ticks=scale.warmup_ticks,
            ),
        )
        for bandwidth_mb in bandwidths_mb
    ]
    grid = _run_grid(keyed_configs, algorithms, scale.num_ticks, seed)
    raw = {}
    for bandwidth_mb, results in grid.items():
        for result in results:
            table.add_row(
                [
                    format_rate(result.config.hardware.disk_bandwidth),
                    result.algorithm_name,
                    format_seconds(result.avg_checkpoint_time),
                    format_seconds(result.recovery_time),
                ]
            )
            raw[f"{bandwidth_mb}:{result.algorithm_key}"] = result.summary()
    table.add_note(
        "checkpoint and recovery times scale with 1/Bdisk -- but note the "
        "back-to-back checkpointing policy's side effect: a faster disk "
        "shortens the checkpoint period, so copy-on-update repays its "
        "per-checkpoint copy burst more often and its *overhead* rises. "
        "With fast disks, checkpoint frequency should be capped rather than "
        "maximized."
    )
    return FigureResult(
        experiment_id="ablation_disk",
        description="Disk-bandwidth sensitivity",
        tables=[table],
        raw=raw,
    )


def run_checkpoint_interval(
    scale: ExperimentScale = FULL_SCALE,
    intervals: Sequence[int] = (1, 4, 12, 30),
    disk_bandwidth_mb: float = 480,
    seed: int = 0,
) -> FigureResult:
    """Capping checkpoint frequency on a fast disk (beyond the paper).

    The paper checkpoints "as frequently as possible" -- optimal when a
    full-state write takes ~0.68 s anyway.  On faster disks that policy
    floods the game with per-checkpoint copy bursts; a minimum interval
    between checkpoint starts trades a bounded increase in replay time for
    a large cut in overhead.
    """
    algorithms = ("copy-on-update", "naive-snapshot")
    table = TextTable(
        f"Ablation: minimum checkpoint interval at "
        f"{disk_bandwidth_mb:g} MB/s disk (64,000 updates/tick)",
        ["interval [ticks]", "algorithm", "avg overhead", "peak pause",
         "recovery"],
    )
    hardware = replace(
        PAPER_HARDWARE, disk_bandwidth=megabytes(disk_bandwidth_mb)
    )
    keyed_configs = [
        (
            interval,
            replace(
                PAPER_CONFIG,
                hardware=hardware,
                warmup_ticks=scale.warmup_ticks,
                min_checkpoint_interval_ticks=interval,
            ),
        )
        for interval in intervals
    ]
    grid = _run_grid(keyed_configs, algorithms, scale.num_ticks, seed)
    raw = {}
    for interval, results in grid.items():
        for result in results:
            table.add_row(
                [
                    interval,
                    result.algorithm_name,
                    format_seconds(result.avg_overhead),
                    format_seconds(result.max_overhead),
                    format_seconds(result.recovery_time),
                ]
            )
            raw[f"{interval}:{result.algorithm_key}"] = result.summary()
    table.add_note(
        "back-to-back checkpointing (interval 1) maximizes copy bursts on a "
        "fast disk; widening the interval cuts copy-on-update overhead "
        "roughly in proportion while recovery grows only by the interval"
    )
    return FigureResult(
        experiment_id="ablation_interval",
        description="Checkpoint-frequency cap on fast disks",
        tables=[table],
        raw=raw,
    )


def run_tick_rate(
    scale: ExperimentScale = FULL_SCALE,
    frequencies: Sequence[float] = (30.0, 60.0),
    seed: int = 0,
) -> FigureResult:
    """30 Hz vs 60 Hz: the latency limit halves at 60 Hz."""
    algorithms = (
        "naive-snapshot", "atomic-copy", "copy-on-update", "dribble"
    )
    table = TextTable(
        "Ablation: tick frequency (64,000 updates/tick, skew 0.8)",
        ["Ftick", "algorithm", "avg overhead", "peak pause",
         "violates half-tick limit"],
    )
    keyed_configs = [
        (
            frequency,
            replace(
                PAPER_CONFIG,
                hardware=PAPER_HARDWARE.with_tick_frequency(frequency),
                warmup_ticks=scale.warmup_ticks,
            ),
        )
        for frequency in frequencies
    ]
    grid = _run_grid(keyed_configs, algorithms, scale.num_ticks, seed)
    raw = {}
    for frequency, results in grid.items():
        for result in results:
            table.add_row(
                [
                    f"{frequency:g} Hz",
                    result.algorithm_name,
                    format_seconds(result.avg_overhead),
                    format_seconds(result.max_overhead),
                    "yes" if result.exceeds_latency_limit() else "no",
                ]
            )
            raw[f"{frequency:g}:{result.algorithm_key}"] = result.summary()
    table.add_note(
        "at 60 Hz the half-tick latency limit drops to 8.3 ms: the ~18 ms "
        "eager pause violates it by even more, and even copy-on-update's "
        "~13 ms first-tick peak now breaks the bound -- at 60 Hz this state "
        "size needs smaller shards or latency masking"
    )
    return FigureResult(
        experiment_id="ablation_tickrate",
        description="Tick-frequency sensitivity",
        tables=[table],
        raw=raw,
    )
