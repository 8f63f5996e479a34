"""Ring-buffered structured tracing with a no-op fast path.

``get_tracer().span("flush", shard=i, cut=n)`` brackets one unit of work;
completed spans are buffered as Chrome ``trace_event``-shaped dicts (phase
``"X"``: name, timestamp, duration, pid/tid, args) in a bounded in-process
deque.  :func:`repro.obs.export.chrome_trace` turns a drained buffer into a
Perfetto-loadable JSON document.

**Disabled is free.**  Tracing defaults to off; a disabled tracer's
``span()`` returns one preallocated no-op context manager -- a single
attribute check and return, no timestamping, no allocation -- so the tick
loops can keep their span calls unconditionally.

**Cross-process.**  The timestamp source is ``time.monotonic_ns``
(CLOCK_MONOTONIC: one epoch for every process on the machine), so spans
recorded in forked shard workers align with the parent's on a common
timeline.  A worker's tracer is given a *sink* -- a
:class:`SharedRingTraceSink` over the shard's shared-memory trace ring --
and each completed span is serialized into the ring instead of the local
buffer; the parent drains the rings (``ShardFleet.trace_events()``) and
merges them with its own buffer.  The ring is SPSC and bounded: a full
ring *drops* the span (tracing never blocks a tick loop) and counts the
drop in the global registry.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.obs.metrics import global_registry

#: Spans kept in a tracer's in-process buffer before the oldest fall off.
BUFFER_EVENTS = 65536

#: Environment switch: REPRO_TRACE=1 enables tracing at import time.
TRACE_ENV = "REPRO_TRACE"


class _NoopSpan:
    """The shared do-nothing context manager a disabled tracer returns."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span: stamps its duration and records itself on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_start_us")

    def __init__(self, tracer: "Tracer", name: str, args: Dict) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._start_us = time.monotonic_ns() // 1000
        return self

    def __exit__(self, *exc_info) -> bool:
        end_us = time.monotonic_ns() // 1000
        self._tracer._record({
            "name": self._name,
            "ph": "X",
            "ts": self._start_us,
            "dur": end_us - self._start_us,
            "pid": self._tracer.pid,
            "tid": threading.get_ident() & 0xFFFFFFFF,
            "args": self._args,
        })
        return False


class Tracer:
    """A per-process span recorder with an optional cross-process sink."""

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = bool(enabled)
        self._events: deque = deque(maxlen=BUFFER_EVENTS)
        self._sink = None
        self.pid = os.getpid()

    @property
    def enabled(self) -> bool:
        return self._enabled

    def configure(self, enabled: bool) -> None:
        self._enabled = bool(enabled)

    def set_sink(self, sink) -> None:
        """Route completed spans to ``sink.emit(event)`` instead of the
        local buffer (the forked-worker path); None restores buffering."""
        self._sink = sink

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, **args):
        """Context manager timing one unit of work.

        Disabled tracers return a preallocated no-op -- the call costs one
        attribute check, so hot loops need no ``if`` around their spans.
        """
        if not self._enabled:
            return _NOOP_SPAN
        return _Span(self, name, args)

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker (queue events, stalls)."""
        if not self._enabled:
            return
        self._record({
            "name": name,
            "ph": "i",
            "ts": time.monotonic_ns() // 1000,
            "pid": self.pid,
            "tid": threading.get_ident() & 0xFFFFFFFF,
            "s": "t",
            "args": args,
        })

    def _record(self, event: Dict) -> None:
        sink = self._sink
        if sink is not None:
            sink.emit(event)
        else:
            self._events.append(event)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def drain(self) -> List[Dict]:
        """Pop and return every buffered event (oldest first)."""
        events: List[Dict] = []
        while True:
            try:
                events.append(self._events.popleft())
            except IndexError:
                return events

    def peek(self) -> List[Dict]:
        """Buffered events without consuming them."""
        return list(self._events)


class SharedRingTraceSink:
    """Serializes span events into a shard's shared-memory trace ring.

    The worker is the ring's single producer; the fleet parent is the
    single consumer (:func:`drain_ring_events`).  Events are compact JSON
    -- the encode cost exists only while tracing is enabled.  A full ring
    drops the event and bumps the ``trace_events_dropped`` counter: a slow
    scraper can lose spans, never stall a tick.
    """

    def __init__(self, ring) -> None:
        self._ring = ring
        self._dropped = global_registry().counter("trace_events_dropped")

    def emit(self, event: Dict) -> None:
        blob = json.dumps(event, separators=(",", ":")).encode("utf-8")
        if not self._ring.try_push(blob):
            self._dropped.inc()


def drain_ring_events(ring) -> List[Dict]:
    """Parent-side drain of one worker's trace ring into event dicts."""
    events: List[Dict] = []
    for blob in ring.drain():
        try:
            events.append(json.loads(blob.decode("utf-8")))
        except (ValueError, UnicodeDecodeError):
            continue  # a torn or garbage record is dropped, not fatal
    return events


# ----------------------------------------------------------------------
# The process-global tracer
# ----------------------------------------------------------------------

_tracer: Optional[Tracer] = None
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumented module shares.

    Forked children inherit the parent's enabled flag (the fleet relies on
    this: enable tracing *before* constructing a process-backend fleet and
    the workers trace too, through their shared rings).
    """
    global _tracer
    if _tracer is None:
        with _tracer_lock:
            if _tracer is None:
                tracer = Tracer(
                    enabled=os.environ.get(TRACE_ENV, "") not in ("", "0")
                )
                _tracer = tracer
    return _tracer


def configure_tracing(enabled: bool) -> Tracer:
    """Enable or disable the process-global tracer; returns it."""
    tracer = get_tracer()
    tracer.configure(enabled)
    return tracer


def tracing_enabled() -> bool:
    return get_tracer().enabled
