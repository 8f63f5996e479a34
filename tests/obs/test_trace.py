"""Tests for the span tracer, its no-op fast path, and the ring sink."""

import json

import pytest

from repro.obs import trace
from repro.obs.metrics import global_registry, reset_global_registry
from repro.obs.trace import (
    SharedRingTraceSink,
    Tracer,
    _NOOP_SPAN,
    configure_tracing,
    drain_ring_events,
    get_tracer,
    tracing_enabled,
)
from repro.state.ring import SharedCommandRing, ring_slots
from repro.state.shared import SharedArena


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything")
        assert span is _NOOP_SPAN
        assert tracer.span("other") is span  # no allocation per call
        with span:
            pass
        assert len(tracer) == 0

    def test_disabled_instant_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.instant("marker", detail=1)
        assert tracer.drain() == []


class TestEnabledRecording:
    def test_span_records_complete_event(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", shard=3):
            pass
        (event,) = tracer.drain()
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert isinstance(event["ts"], int)
        assert event["pid"] == tracer.pid
        assert event["args"] == {"shard": 3}

    def test_instant_records_marker(self):
        tracer = Tracer(enabled=True)
        tracer.instant("stall", tick=7)
        (event,) = tracer.drain()
        assert event["ph"] == "i"
        assert event["args"] == {"tick": 7}

    def test_nested_spans_order_and_drain_empties(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        events = tracer.drain()
        # The inner span exits (and records) first.
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert tracer.drain() == []

    def test_span_records_even_when_body_raises(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("explodes"):
                raise ValueError("boom")
        assert [e["name"] for e in tracer.drain()] == ["explodes"]

    def test_peek_does_not_consume(self):
        tracer = Tracer(enabled=True)
        tracer.instant("once")
        assert len(tracer.peek()) == 1
        assert len(tracer.peek()) == 1

    def test_buffer_is_bounded(self, monkeypatch):
        monkeypatch.setattr(trace, "BUFFER_EVENTS", 4)
        tracer = Tracer(enabled=True)
        for index in range(10):
            tracer.instant(f"e{index}")
        names = [e["name"] for e in tracer.drain()]
        assert names == ["e6", "e7", "e8", "e9"]


class TestRingSink:
    @pytest.fixture
    def trace_ring(self):
        arena = SharedArena.create(ring_slots(4096, prefix="trc"))
        try:
            yield SharedCommandRing(arena, prefix="trc")
        finally:
            arena.destroy()

    def test_events_round_trip_through_ring(self, trace_ring):
        tracer = Tracer(enabled=True)
        tracer.set_sink(SharedRingTraceSink(trace_ring))
        with tracer.span("flush", epoch=2):
            pass
        assert len(tracer) == 0  # routed to the sink, not the buffer
        (event,) = drain_ring_events(trace_ring)
        assert event["name"] == "flush"
        assert event["args"] == {"epoch": 2}

    def test_full_ring_drops_and_counts(self, trace_ring):
        reset_global_registry()
        tracer = Tracer(enabled=True)
        tracer.set_sink(SharedRingTraceSink(trace_ring))
        for index in range(200):
            tracer.instant("spam", i=index)
        dropped = global_registry().value("trace_events_dropped")
        assert dropped > 0
        assert len(drain_ring_events(trace_ring)) + dropped == 200

    def test_garbage_records_are_skipped(self, trace_ring):
        trace_ring.try_push(b"\xff\xfenot json")
        trace_ring.try_push(
            json.dumps({"name": "ok", "ph": "i"}).encode("utf-8")
        )
        events = drain_ring_events(trace_ring)
        assert [e["name"] for e in events] == ["ok"]

    def test_clearing_sink_restores_buffering(self, trace_ring):
        tracer = Tracer(enabled=True)
        tracer.set_sink(SharedRingTraceSink(trace_ring))
        tracer.set_sink(None)
        tracer.instant("local")
        assert len(tracer) == 1
        assert drain_ring_events(trace_ring) == []


class TestGlobalTracer:
    def test_configure_toggles_shared_instance(self):
        tracer = configure_tracing(True)
        try:
            assert tracing_enabled()
            assert get_tracer() is tracer
            with get_tracer().span("probe"):
                pass
            assert any(e["name"] == "probe" for e in tracer.drain())
        finally:
            configure_tracing(False)
            tracer.drain()
        assert not tracing_enabled()
