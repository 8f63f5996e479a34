"""Shared experiment infrastructure: scales, sweeps, and result bundles."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.analysis.tables import TextTable

#: The Table 4 updates-per-tick sweep (1,000 ... 256,000; default 64,000).
UPDATES_PER_TICK_SWEEP: Tuple[int, ...] = (
    1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000
)

#: The Table 4 skew sweep (0 ... 0.99; default 0.8).
SKEW_SWEEP: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.99)

#: Table 4 defaults (the bold values).
DEFAULT_UPDATES_PER_TICK = 64_000
DEFAULT_SKEW = 0.8


@dataclass(frozen=True)
class ExperimentScale:
    """How much work an experiment run does.

    The paper simulates 1,000 ticks; because all costs are analytic, the
    per-tick pattern repeats with the checkpoint period (at most ~21 ticks),
    so shorter runs with a warmup window reproduce the same averages.  The
    ``full`` preset keeps enough ticks for tight estimates; ``quick`` keeps
    CI and tests fast.
    """

    name: str
    num_ticks: int
    warmup_ticks: int
    updates_sweep: Tuple[int, ...]
    skew_sweep: Tuple[float, ...]
    game_units: int
    validation_ticks: int
    validation_sweep: Tuple[int, ...]

    def with_overrides(self, **overrides) -> "ExperimentScale":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


FULL_SCALE = ExperimentScale(
    name="full",
    num_ticks=240,
    warmup_ticks=40,
    updates_sweep=UPDATES_PER_TICK_SWEEP,
    skew_sweep=SKEW_SWEEP,
    # The vectorized Knights and Archers game holds ~50 ticks/s at the
    # paper's full 400,128-unit scale, so fig5's "game" source runs the real
    # thing (its trace averages ~34k updates/tick vs Table 5's 35,590).
    game_units=400_128,
    validation_ticks=120,
    validation_sweep=(1_000, 4_000, 16_000, 64_000, 256_000),
)

QUICK_SCALE = ExperimentScale(
    name="quick",
    num_ticks=100,
    warmup_ticks=30,
    updates_sweep=(1_000, 8_000, 64_000, 256_000),
    skew_sweep=(0.0, 0.8, 0.99),
    game_units=8_192,
    validation_ticks=45,
    validation_sweep=(1_000, 16_000, 64_000),
)


@dataclass
class FigureResult:
    """Everything one experiment produced, ready to print."""

    experiment_id: str
    description: str
    tables: List[TextTable] = field(default_factory=list)
    charts: List[str] = field(default_factory=list)
    #: Raw metric values keyed however the experiment likes (for tests).
    raw: Dict = field(default_factory=dict)

    def render(self) -> str:
        """Full text report: header, tables, charts."""
        lines = [
            f"[{self.experiment_id}] {self.description}",
            "",
        ]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        for chart in self.charts:
            lines.append(chart)
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def __str__(self) -> str:
        return self.render()


def format_seconds(value: float) -> str:
    """Compact seconds formatting for table cells (msec below 1 s)."""
    if value != value:  # NaN
        return "-"
    if value >= 1.0:
        return f"{value:.3f} s"
    return f"{value * 1e3:.3f} ms"


def format_count(value: float) -> str:
    """Thousands-separated integer formatting for table cells."""
    return f"{value:,.0f}"
