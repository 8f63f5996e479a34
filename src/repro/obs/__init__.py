"""Unified fleet observability: metrics registry, tracing, telemetry.

The paper's claims are about latency impact and recovery time, so the repo
needs to *see* those quantities end to end.  This package is the substrate:

* :mod:`repro.obs.metrics` -- lock-light ``Counter`` / ``Gauge`` /
  fixed-bucket ``Histogram`` primitives over an int64 row that can live
  either in process memory or in a :class:`~repro.state.shared.SharedArena`
  slot (single writer per row, the shard-control-row discipline), so forked
  shard workers publish tick timings the parent scrapes with zero syscalls;
* :mod:`repro.obs.trace` -- ring-buffered span events with a no-op fast
  path when disabled, bridged across the process boundary by a shared-memory
  ring per shard;
* :mod:`repro.obs.export` -- Chrome ``trace_event`` JSON export
  (``chrome://tracing`` / Perfetto-loadable) plus a schema validator;
* :mod:`repro.obs.telemetry` -- the merged :class:`FleetTelemetry` snapshot
  :meth:`~repro.engine.fleet.ShardFleet.telemetry` returns and the gateway
  serves through its ``STATS`` frame;
* :mod:`repro.obs.dump` -- ``python -m repro.obs.dump HOST PORT`` prints a
  live fleet snapshot fetched over the gateway protocol.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSpec,
    MetricsLayout,
    RowMetrics,
    global_registry,
)
from repro.obs.trace import configure_tracing, get_tracer, tracing_enabled
from repro.obs.export import chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.obs.telemetry import FleetTelemetry, PoolTelemetry, ShardTelemetry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsLayout",
    "RowMetrics",
    "global_registry",
    "configure_tracing",
    "get_tracer",
    "tracing_enabled",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "FleetTelemetry",
    "PoolTelemetry",
    "ShardTelemetry",
]
