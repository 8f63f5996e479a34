"""Update-trace workloads that drive the checkpoint simulator.

"The input to our simulator is an update trace indicating which attributes of
game objects, termed cells, have been updated on each tick of the game"
(paper, Section 4.4).  This package provides:

* :class:`~repro.workloads.base.UpdateTrace` -- the trace protocol: a
  geometry plus one array of flat cell indices per tick.
* :class:`~repro.workloads.zipf.ZipfTrace` -- the synthetic workload of
  Table 4: row and column drawn independently from a Zipf distribution.
* :class:`~repro.workloads.uniform.UniformTrace` -- the skew = 0 special
  case, sampled directly.
* :class:`~repro.workloads.gamelike.GameLikeTrace` -- a statistical model of
  the Knights and Archers trace (Table 5: 400,128 units x 13 attributes,
  ~10% active, active set renewed every ~100 ticks, ~35,590 updates/tick).
* :mod:`~repro.workloads.trace_file` -- save/load traces as ``.npz`` files.
* :class:`~repro.workloads.stats.TraceStatistics` -- Table 5-style trace
  characterization.
* :class:`~repro.workloads.reduced.PrecomputedObjectTrace` -- a trace reduced
  once to the per-tick ``(unique objects, update count)`` view policies
  observe, shared by every algorithm run over it.
"""

from repro.workloads.base import MaterializedTrace, UpdateTrace
from repro.workloads.gamelike import GameLikeTrace
from repro.workloads.reduced import PrecomputedObjectTrace
from repro.workloads.stats import TraceStatistics
from repro.workloads.trace_file import load_trace, save_trace
from repro.workloads.uniform import UniformTrace
from repro.workloads.zipf import ZipfDistribution, ZipfTrace

__all__ = [
    "GameLikeTrace",
    "MaterializedTrace",
    "PrecomputedObjectTrace",
    "TraceStatistics",
    "UniformTrace",
    "UpdateTrace",
    "ZipfDistribution",
    "ZipfTrace",
    "load_trace",
    "save_trace",
]
