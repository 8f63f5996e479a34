"""Figure 5: the prototype game server trace (Section 5.4).

The paper feeds the simulator a trace from the Knights and Archers game:
400,128 units x 13 attributes, updates to ~10% of the units every tick,
averaging 35,590 attribute updates per tick.  Two trace sources are
supported:

* ``"gamelike"`` (default) -- the statistical model of
  :class:`~repro.workloads.gamelike.GameLikeTrace` at the paper's full
  400,128-unit geometry;
* ``"game"`` -- an actual instrumented run of the Knights and Archers game
  at ``scale.game_units`` units (Python-friendly), with the battle scoreboard
  included in the report.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.tables import TextTable
from repro.config import GAME_CONFIG, GAME_GEOMETRY, SimulationConfig
from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    FULL_SCALE,
    format_count,
    format_seconds,
)
from repro.game.knights_archers import KnightsArchersGame
from repro.game.recorder import record_trace
from repro.game.scenario import BattleScenario
from repro.game.stats import BattleReport
from repro.simulation.sweep import SweepTask, run_sweep
from repro.state.table import GameStateTable
from repro.workloads.gamelike import GameLikeTrace
from repro.workloads.reduced import PrecomputedObjectTrace


def build_task(scale: ExperimentScale, source: str, seed: int):
    """Build the Figure 5 sweep task; returns (task, extra_notes).

    The ``"gamelike"`` source generates the statistical model's trace; the
    ``"game"`` source runs the instrumented game and records its trace.
    """
    if source == "gamelike":
        config = replace(
            GAME_CONFIG,
            geometry=GAME_GEOMETRY,
            warmup_ticks=scale.warmup_ticks,
        )
        trace = GameLikeTrace(
            GAME_GEOMETRY, num_ticks=scale.num_ticks, seed=seed
        )
        notes = [
            "trace source: statistical game model at the paper's full "
            "400,128-unit geometry"
        ]
        return SweepTask(key="game-trace", config=config, trace=trace), notes
    if source == "game":
        scenario = BattleScenario(num_units=scale.game_units)
        game = KnightsArchersGame(scenario)
        table = GameStateTable(scenario.geometry, dtype=np.float32)
        trace = record_trace(game, scale.num_ticks, seed=seed, table=table)
        report = BattleReport.from_table(table)
        notes = [
            f"trace source: instrumented Knights and Archers run at "
            f"{scenario.num_units:,} units",
        ] + report.describe().splitlines()
        config = replace(
            GAME_CONFIG,
            geometry=trace.geometry,
            warmup_ticks=scale.warmup_ticks,
        )
        return SweepTask(key="game-trace", config=config, trace=trace), notes
    raise ValueError(f"unknown Figure 5 trace source {source!r}")


def run(
    scale: ExperimentScale = FULL_SCALE,
    source: str = "gamelike",
    seed: int = 0,
) -> FigureResult:
    """Reproduce Figure 5 (game-trace bars for all six algorithms)."""
    task, notes = build_task(scale, source, seed)
    # The characterization table reads the same reduction the runs use.
    reduced = PrecomputedObjectTrace(task.trace)
    results = run_sweep([replace(task, trace=reduced)])[task.key]

    table = TextTable(
        "Figure 5: game trace -- overhead / checkpoint / recovery",
        [
            "algorithm",
            "(a) avg overhead",
            "(b) time to checkpoint",
            "(c) recovery time",
            "objects/ckpt",
        ],
    )
    for result in results:
        table.add_row(
            [
                result.algorithm_name,
                format_seconds(result.avg_overhead),
                format_seconds(result.avg_checkpoint_time),
                format_seconds(result.recovery_time),
                format_count(result.avg_objects_written),
            ]
        )
    for note in notes:
        table.add_note(note)
    table.add_note(
        f"trace: {reduced.avg_updates_per_tick:,.0f} avg updates/tick over "
        f"{reduced.num_ticks} ticks (paper: 35,590)"
    )
    table.add_note(
        "paper: Copy-on-Update-Partial-Redo overhead 1.6 ms vs 1.2 ms for "
        "Copy-on-Update; Atomic-Copy-Dirty-Objects has the lowest overhead, "
        "slightly below Naive-Snapshot; partial-redo recovery times largest"
    )

    characterization = TextTable(
        "Table 5: characteristics of the game update trace",
        ["parameter", "setting"],
    )
    characterization.add_row(["number of units", f"{reduced.geometry.rows:,}"])
    characterization.add_row(
        ["number of attributes per unit", reduced.geometry.columns]
    )
    characterization.add_row(["number of ticks", f"{reduced.num_ticks:,}"])
    characterization.add_row(
        ["avg. number of updates per tick",
         f"{reduced.avg_updates_per_tick:,.0f}"]
    )

    figure = FigureResult(
        experiment_id="fig5",
        description=(
            "Overhead, checkpoint, and recovery times for the prototype game "
            "trace (Section 5.4)"
        ),
        tables=[table, characterization],
        raw={
            "results": {r.algorithm_key: r.summary() for r in results},
            "trace": {
                "avg_updates_per_tick": reduced.avg_updates_per_tick,
                "rows": reduced.geometry.rows,
                "columns": reduced.geometry.columns,
            },
        },
    )
    return figure
