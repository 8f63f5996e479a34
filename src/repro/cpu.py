"""CPU-count detection that respects the scheduler, not the hardware.

``os.cpu_count()`` reports every core the *machine* has, which is the wrong
number on cgroup-pinned CI runners and containerized deployments: a host with
64 cores whose job is pinned to 2 will oversubscribe itself 32x if worker
defaults are sized from ``cpu_count``.  ``os.sched_getaffinity(0)`` reports
the cores this process may actually run on, which is the number parallel
fan-out should be sized from.

Everything in the repo that sizes a worker crew -- the load generator's
client count, the gateway load example -- goes through
:func:`available_cpu_count` so the policy lives in one place.
"""

from __future__ import annotations

import os


def available_cpu_count() -> int:
    """Number of CPUs this process is allowed to run on (always >= 1).

    Prefers ``os.sched_getaffinity`` (honors cgroup/affinity pinning);
    falls back to ``os.cpu_count()`` on platforms without affinity support.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)
