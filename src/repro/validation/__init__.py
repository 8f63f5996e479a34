"""Validation of the simulation model against the engine we ship (Section 6).

The paper compares its simulator, calibrated with host micro-benchmarks,
against a real implementation with "a mutator thread and an asynchronous
writer thread".  Here the real implementation is the durable engine itself,
for all six algorithms: :mod:`~repro.validation.microbench` measures this
host's Table 3 parameters the way Section 4.3 describes, and
:mod:`~repro.validation.harness` replays an update trace through the engine,
crashes and recovers it, and sets what the engine accounted beside the
simulator over an updates-per-tick sweep (Figure 6).
"""

from repro.validation.harness import (
    ValidationComparison,
    run_validation_point,
    run_validation_sweep,
)
from repro.validation.microbench import measure_host_parameters

__all__ = [
    "ValidationComparison",
    "measure_host_parameters",
    "run_validation_point",
    "run_validation_sweep",
]
