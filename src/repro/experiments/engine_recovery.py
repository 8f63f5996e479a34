"""Measured crash recovery in the real engine -- Figure 2(c) in miniature.

Where `fig2c` reports the *model's* recovery estimate, this experiment
actually crashes a durable game server under every algorithm and times the
real restore (checkpoint read / log-tail reconstruction) and replay
(deterministic re-execution from the logical log).  It checks the shape the
paper predicts on genuine files: the partial-redo pair pays the largest
restore, everything recovers bit-exactly, and replay scales with the ticks
since the checkpoint cut.  It is the Figure 6 harness
(:func:`repro.validation.harness.measure_engine_run`) at one operating point
with the Knights-and-Archers game, ticks run flat out: the crash comes
straight after the last tick, so the replayed tail is the ticks the pool
writer's last flushes spanned.

Runs at engine scale (a few MB of state, Python speed) -- absolute times are
host numbers, the ordering is the result.
"""

from __future__ import annotations

import tempfile
from typing import Dict

from repro.analysis.tables import TextTable
from repro.core.registry import ALGORITHM_KEYS, algorithm_class
from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    FULL_SCALE,
    format_seconds,
)
from repro.game.knights_archers import KnightsArchersGame
from repro.game.scenario import BattleScenario
from repro.validation.harness import measure_engine_run


def run(scale: ExperimentScale = FULL_SCALE, seed: int = 0,
        directory=None) -> FigureResult:
    """Crash and recover the real engine under all six algorithms."""
    scenario = BattleScenario(num_units=min(scale.game_units, 8_192))
    ticks = max(60, scale.num_ticks // 2)
    app = KnightsArchersGame(scenario)

    table = TextTable(
        f"Measured engine recovery ({scenario.num_units:,} units, "
        f"{ticks} ticks, pool writer, crash at the end)",
        ["algorithm", "ckpt cut tick", "ticks replayed", "restore",
         "replay", "total recovery", "bit-exact"],
    )
    raw: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="repro-engine-rec-",
                                     dir=directory) as root:
        for key in ALGORITHM_KEYS:
            # Raises unless the recovered table is the live one at the crash.
            _, _, report = measure_engine_run(
                app, key, ticks, f"{root}/{key}", seed=seed
            )
            table.add_row(
                [
                    algorithm_class(key).name,
                    report.checkpoint_tick,
                    report.ticks_replayed,
                    format_seconds(report.restore_seconds),
                    format_seconds(report.replay_seconds),
                    format_seconds(report.recovery_seconds),
                    "yes",
                ]
            )
            raw[key] = {
                "checkpoint_tick": report.checkpoint_tick,
                "ticks_replayed": report.ticks_replayed,
                "restore_s": report.restore_seconds,
                "replay_s": report.replay_seconds,
                "recovery_s": report.recovery_seconds,
                "exact": True,
            }
    table.add_note(
        "real files, real replay; the paper's fig 2(c) ordering should show "
        "up as larger restore times for the partial-redo (log-scan) pair"
    )
    return FigureResult(
        experiment_id="engine_recovery",
        description="Measured crash recovery in the durable engine",
        tables=[table],
        raw=raw,
    )
