"""Per-layer tracing from outside the program.

The traced run records a span around each public callable at a layer
boundary by wrapping it where the harness imports it: a method on its
class, a function in the namespace that calls it.  Nothing under ``src/``
is edited; a callable a later change removes is skipped and its metrics
read as absent.  Spans stay in memory (one list per thread, so recording
takes no lock) and are written out when the run ends.

A span's *self time* is its duration minus the durations of its child
spans -- the spans opened on the same thread while it was open.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from typing import Callable, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the same thread's list, or -1.
    parent: int
    thread: int
    #: Identity of the object the call was about (pairs a submit with the
    #: store call that serves it), or None.
    key: Optional[int]
    #: The call's return value when it is a number (bytes written), or None.
    result: Optional[float]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_seconds(spans: List[Span]) -> List[float]:
    """Self time of each span of ONE thread's list: its duration minus its
    direct children's durations."""
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.seconds
    return own


class SpanRecorder:
    """Wraps callables, collects their spans, restores them afterwards."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._local = threading.local()
        self._threads: List[list] = []
        self._registering = threading.Lock()
        self._patched: List[tuple] = []
        #: Span names whose callable no longer exists.
        self.absent: List[str] = []

    # -- recording -----------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # (records, stack of open record indexes)
            self._local.state = state
            with self._registering:
                self._threads.append(state[0])
        return state

    def _wrapper(self, original: Callable, name: str,
                 key: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                # A forked shard worker inherits the wrappers; its spans
                # could never be collected, so it runs the original bare.
                return original(*args, **kwargs)
            records, stack = self._thread_state()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      key(*args) if key is not None else None, None]
            stack.append(len(records))
            records.append(record)
            record[1] = time.perf_counter()
            try:
                value = original(*args, **kwargs)
                if isinstance(value, (int, float)):
                    record[5] = value
                return value
            finally:
                record[2] = time.perf_counter()
                stack.pop()
        traced.__wrapped__ = original
        return traced

    def wrap(self, module: str, owner: Optional[str], attribute: str,
             name: str, key: Optional[Callable] = None) -> bool:
        """Wrap ``module.owner.attribute`` (``owner`` None: a module-level
        name) as span ``name``.  Returns False, and notes the span as
        absent, when the callable does not exist."""
        try:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = target.__dict__[attribute]
        except (ImportError, AttributeError, KeyError):
            self.absent.append(name)
            return False
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(
                self._wrapper(original.__func__, name, key)
            )
        else:
            wrapped = self._wrapper(original, name, key)
        setattr(target, attribute, wrapped)
        self._patched.append((target, attribute, original))
        return True

    def restore(self) -> None:
        """Put every wrapped callable back."""
        while self._patched:
            target, attribute, original = self._patched.pop()
            setattr(target, attribute, original)

    # -- reading -------------------------------------------------------

    def threads(self) -> List[List[Span]]:
        """One list of spans per recording thread, in the order opened.
        ``Span.thread`` is the list's index (thread idents get reused)."""
        return [
            [Span(r[0], r[1], r[2], r[3], index, r[4], r[5]) for r in records]
            for index, records in enumerate(self._threads)
        ]

    def write_chrome_trace(self, path: str, origin: float) -> int:
        """Write every span as a Chrome ``trace_event`` complete event;
        returns the number of spans written."""
        events = []
        for spans in self.threads():
            for span in spans:
                events.append({
                    "name": span.name, "ph": "X", "pid": self._pid,
                    "tid": span.thread,
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.seconds * 1e6,
                })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
        return len(events)
