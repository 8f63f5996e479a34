"""Registry mapping experiment ids to their drivers."""

from __future__ import annotations

import inspect
from typing import Callable, Dict, FrozenSet

from repro.errors import ConfigurationError
from repro.experiments import (
    ablations,
    alternatives_study,
    engine_recovery,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
)
from repro.experiments import paper_tables
from repro.experiments.common import ExperimentScale, FigureResult, FULL_SCALE

_EXPERIMENTS: Dict[str, Callable[..., FigureResult]] = {
    "table1": paper_tables.run_table1,
    "table2": paper_tables.run_table2,
    "table3": paper_tables.run_table3,
    "table4": paper_tables.run_table4,
    "table5": paper_tables.run_table5,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "ablation_objsize": ablations.run_object_size,
    "ablation_fulldump": ablations.run_full_dump_period,
    "ablation_disk": ablations.run_disk_bandwidth,
    "ablation_tickrate": ablations.run_tick_rate,
    "ablation_interval": ablations.run_checkpoint_interval,
    "alternatives": alternatives_study.run,
    "engine_recovery": engine_recovery.run,
}

#: All runnable experiment ids, in presentation order.
EXPERIMENT_IDS = tuple(_EXPERIMENTS)


def _driver(experiment_id: str) -> Callable[..., FigureResult]:
    try:
        return _EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(EXPERIMENT_IDS)
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def experiment_parameters(experiment_id: str) -> FrozenSet[str]:
    """The keyword parameters an experiment's driver accepts.

    Callers use this instead of hardcoding which experiments take ``seed``:
    the run function's signature is the single source of truth.
    """
    return frozenset(inspect.signature(_driver(experiment_id)).parameters)


def run_experiment(
    experiment_id: str, scale: ExperimentScale = FULL_SCALE, **kwargs
) -> FigureResult:
    """Run one experiment by id.

    Keyword arguments the driver does not accept are silently dropped, so
    callers can offer ``seed=...`` uniformly.
    """
    driver = _driver(experiment_id)
    accepted = experiment_parameters(experiment_id)
    kwargs = {key: value for key, value in kwargs.items() if key in accepted}
    return driver(scale, **kwargs)
