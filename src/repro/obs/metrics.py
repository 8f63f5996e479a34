"""A lock-light metrics registry over an int64 table.

Every metric lives in a fixed slice of one ``int64`` numpy array shaped
``(rows, fields)``.  A **row** has exactly one writing thread or process
(the shard-control-row discipline of :mod:`repro.engine.shard_worker`):
aligned int64 stores are atomic on every platform the fork backend runs
on, so a writer mutates its row with plain array stores -- no lock, no
syscall -- while any number of readers snapshot it concurrently.  Readers
may observe a *torn set* of fields (counter A from tick N, counter B from
tick N+1) but never a torn value; that per-field monotonic consistency is
all the fleet dashboard needs and exactly what the control row already
guarantees.

Backings:

* in-process -- ``MetricsRegistry(layout, rows)`` allocates a private
  ``np.zeros`` table (the thread backend, the gateway, recovery);
* process-shared -- the same layout laid into a
  :class:`~repro.state.shared.SharedArena` slot
  (:meth:`MetricsLayout.slot_spec` + :meth:`MetricsRegistry.from_array`),
  so a forked shard worker publishes and the parent scrapes the identical
  rows with zero syscalls.

Units convention: durations are recorded in **microseconds** (int64 holds
~292k years of them), byte counts in bytes, everything else unitless.

Histograms are fixed-bucket: ``B`` upper bounds plus an overflow bucket,
then a total count and a value sum -- ``B + 3`` int64 fields.  ``observe``
is a bisect plus three array stores; percentile estimation interpolates
within the winning bucket, so scraping is O(buckets) however many samples
were recorded (the property the writer-stats hot path relies on).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError

#: Metric kinds.
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram bounds for tick/flush durations, in microseconds:
#: 50us .. 1s, roughly 2-4x steps, plus the implicit overflow bucket.
DURATION_BUCKETS_US: Tuple[int, ...] = (
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
    100_000, 200_000, 500_000, 1_000_000,
)


class MetricsError(ReproError):
    """A misdeclared or misused metric."""


@dataclass(frozen=True)
class MetricSpec:
    """One metric's declaration: name, kind, and histogram bounds."""

    name: str
    kind: str = COUNTER
    #: Ascending upper bounds (histograms only); values above the last
    #: bound land in the overflow bucket.
    buckets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in (COUNTER, GAUGE, HISTOGRAM):
            raise MetricsError(f"unknown metric kind {self.kind!r}")
        if self.kind == HISTOGRAM:
            if not self.buckets:
                raise MetricsError(f"histogram {self.name!r} needs buckets")
            if list(self.buckets) != sorted(set(self.buckets)):
                raise MetricsError(
                    f"histogram {self.name!r} bounds must strictly ascend"
                )
        elif self.buckets is not None:
            raise MetricsError(f"{self.kind} {self.name!r} takes no buckets")

    @property
    def num_fields(self) -> int:
        """Int64 fields this metric occupies in a row."""
        if self.kind == HISTOGRAM:
            # bounded buckets + overflow + count + sum
            return len(self.buckets) + 3
        return 1


class MetricsLayout:
    """Field offsets of an ordered set of :class:`MetricSpec`.

    The layout is the schema both sides of a shared registry must agree
    on -- the writer (a forked worker) and the scraper (the parent) build
    their views from the same spec list, exactly like an arena slot spec.
    """

    def __init__(self, specs: Sequence[MetricSpec]) -> None:
        self._specs: List[MetricSpec] = []
        self._offsets: Dict[str, int] = {}
        offset = 0
        for spec in specs:
            if spec.name in self._offsets:
                raise MetricsError(f"duplicate metric {spec.name!r}")
            self._specs.append(spec)
            self._offsets[spec.name] = offset
            offset += spec.num_fields
        self._num_fields = offset

    @property
    def specs(self) -> List[MetricSpec]:
        return list(self._specs)

    @property
    def num_fields(self) -> int:
        """Int64 fields one row occupies."""
        return self._num_fields

    def spec(self, name: str) -> MetricSpec:
        for candidate in self._specs:
            if candidate.name == name:
                return candidate
        raise MetricsError(f"no metric {name!r}; have {list(self._offsets)}")

    def offset(self, name: str) -> int:
        try:
            return self._offsets[name]
        except KeyError:
            raise MetricsError(
                f"no metric {name!r}; have {list(self._offsets)}"
            ) from None

    def slot_spec(self, rows: int, slot: str = "obs_metrics"):
        """Arena :data:`~repro.state.shared.SlotSpec` for ``rows`` rows."""
        return (slot, (int(rows), self._num_fields), np.dtype(np.int64))


class Counter:
    """A monotonically increasing int64 cell (single writer)."""

    __slots__ = ("_row", "_offset")

    def __init__(self, row: np.ndarray, offset: int) -> None:
        self._row = row
        self._offset = offset

    @property
    def value(self) -> int:
        return int(self._row[self._offset])

    def inc(self, amount: int = 1) -> None:
        self._row[self._offset] += amount

    def set(self, value: int) -> None:
        """Overwrite (restore paths and the gateway's ``+=`` sugar)."""
        self._row[self._offset] = int(value)


class Gauge:
    """A last-value int64 cell (single writer)."""

    __slots__ = ("_row", "_offset")

    def __init__(self, row: np.ndarray, offset: int) -> None:
        self._row = row
        self._offset = offset

    @property
    def value(self) -> int:
        return int(self._row[self._offset])

    def set(self, value: int) -> None:
        self._row[self._offset] = int(value)

    def max(self, value: int) -> None:
        """Raise the gauge to ``value`` if it is higher (high-water marks)."""
        if value > self._row[self._offset]:
            self._row[self._offset] = int(value)


class Histogram:
    """A fixed-bucket int64 histogram (single writer).

    Field layout within the row: ``len(bounds)`` bounded buckets, one
    overflow bucket, total count, value sum.  ``observe`` costs one bisect
    and three stores; every read-side quantity is O(buckets).
    """

    __slots__ = ("_row", "_offset", "_bounds")

    def __init__(
        self, row: np.ndarray, offset: int, bounds: Sequence[int]
    ) -> None:
        self._row = row
        self._offset = offset
        self._bounds = list(bounds)

    @property
    def bounds(self) -> List[int]:
        return list(self._bounds)

    def observe(self, value: float) -> None:
        base = self._offset
        index = bisect_left(self._bounds, value)
        self._row[base + index] += 1
        nb = len(self._bounds)
        self._row[base + nb + 1] += 1
        self._row[base + nb + 2] += int(value)

    # -- read side -----------------------------------------------------

    @property
    def counts(self) -> List[int]:
        """Bucket counts, overflow last."""
        base = self._offset
        stop = base + len(self._bounds) + 1
        return [int(v) for v in self._row[base:stop]]

    @property
    def count(self) -> int:
        return int(self._row[self._offset + len(self._bounds) + 1])

    @property
    def sum(self) -> int:
        return int(self._row[self._offset + len(self._bounds) + 2])

    @property
    def mean(self) -> float:
        count = self.count
        return self.sum / count if count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimate the ``fraction`` quantile from the bucket counts.

        Linear interpolation inside the winning bucket (the overflow
        bucket reports its lower bound -- the estimate saturates rather
        than inventing a tail).  0.0 with no samples.
        """
        if not 0.0 <= fraction <= 1.0:
            raise MetricsError(f"fraction must be in [0, 1], got {fraction}")
        counts = self.counts
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = fraction * total
        seen = 0
        for index, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index >= len(self._bounds):
                    return float(self._bounds[-1])
                low = self._bounds[index - 1] if index else 0
                high = self._bounds[index]
                within = (rank - (seen - bucket_count)) / bucket_count
                return low + (high - low) * within
        return float(self._bounds[-1])

    def snapshot(self) -> "HistogramSnapshot":
        """O(buckets) value copy safe to hold across further observes."""
        return HistogramSnapshot(
            bounds=tuple(self._bounds),
            counts=tuple(self.counts),
            total=self.count,
            value_sum=self.sum,
        )


@dataclass(frozen=True)
class HistogramSnapshot:
    """A detached histogram: the O(buckets) scrape the hot path hands out."""

    bounds: Tuple[int, ...]
    counts: Tuple[int, ...]
    total: int
    value_sum: int

    @property
    def count(self) -> int:
        return self.total

    @property
    def sum(self) -> int:
        return self.value_sum

    @property
    def mean(self) -> float:
        return self.value_sum / self.total if self.total else 0.0

    def percentile(self, fraction: float) -> float:
        scratch = Histogram(
            np.array(self.counts + (self.total, self.value_sum),
                     dtype=np.int64),
            0,
            self.bounds,
        )
        return scratch.percentile(fraction)

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.bounds != other.bounds:
            raise MetricsError("cannot merge histograms with different bounds")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            value_sum=self.value_sum + other.value_sum,
        )


def merge_histograms(
    snapshots: Sequence[HistogramSnapshot],
) -> Optional[HistogramSnapshot]:
    """Fold per-shard histograms into one fleet-wide distribution."""
    merged: Optional[HistogramSnapshot] = None
    for snapshot in snapshots:
        merged = snapshot if merged is None else merged.merge(snapshot)
    return merged


class RowMetrics:
    """One row's writer/reader handle set.

    The single writer holds the :class:`Counter` / :class:`Gauge` /
    :class:`Histogram` handles and mutates; scrapers call :meth:`snapshot`
    for a detached dict.  Handles are cached so the hot path never
    re-resolves offsets.
    """

    def __init__(self, layout: MetricsLayout, row: np.ndarray) -> None:
        self._layout = layout
        self._row = row
        self._handles: Dict[str, object] = {}

    def _handle(self, name: str, kind: str):
        handle = self._handles.get(name)
        if handle is None:
            spec = self._layout.spec(name)
            if spec.kind != kind:
                raise MetricsError(
                    f"metric {name!r} is a {spec.kind}, not a {kind}"
                )
            offset = self._layout.offset(name)
            if kind == COUNTER:
                handle = Counter(self._row, offset)
            elif kind == GAUGE:
                handle = Gauge(self._row, offset)
            else:
                handle = Histogram(self._row, offset, spec.buckets)
            self._handles[name] = handle
        return handle

    def counter(self, name: str) -> Counter:
        return self._handle(name, COUNTER)

    def gauge(self, name: str) -> Gauge:
        return self._handle(name, GAUGE)

    def histogram(self, name: str) -> Histogram:
        return self._handle(name, HISTOGRAM)

    def value(self, name: str) -> int:
        """Scalar read of a counter or gauge."""
        spec = self._layout.spec(name)
        if spec.kind == HISTOGRAM:
            raise MetricsError(f"{name!r} is a histogram; use histogram()")
        return int(self._row[self._layout.offset(name)])

    def set_value(self, name: str, value: int) -> None:
        """Scalar write of a counter or gauge (single-writer rows only)."""
        spec = self._layout.spec(name)
        if spec.kind == HISTOGRAM:
            raise MetricsError(f"{name!r} is a histogram; use histogram()")
        self._row[self._layout.offset(name)] = int(value)

    def snapshot(self) -> Dict[str, object]:
        """Detached per-metric values: ints for scalars,
        :class:`HistogramSnapshot` for histograms."""
        out: Dict[str, object] = {}
        for spec in self._layout.specs:
            if spec.kind == HISTOGRAM:
                out[spec.name] = self.histogram(spec.name).snapshot()
            else:
                out[spec.name] = self.value(spec.name)
        return out


class MetricsRegistry:
    """``rows x fields`` int64 metric table; one writer per row.

    ``MetricsRegistry(layout, rows)`` allocates a private table;
    :meth:`from_array` wraps an existing int64 array -- typically a
    :class:`~repro.state.shared.SharedArena` slot laid out with
    :meth:`MetricsLayout.slot_spec`, which is how the forked shard workers
    and the fleet parent share one table.
    """

    def __init__(
        self,
        layout: MetricsLayout,
        rows: int = 1,
        array: Optional[np.ndarray] = None,
    ) -> None:
        if rows < 1:
            raise MetricsError(f"rows must be positive, got {rows}")
        self._layout = layout
        if array is None:
            array = np.zeros((rows, layout.num_fields), dtype=np.int64)
        else:
            if array.shape != (rows, layout.num_fields):
                raise MetricsError(
                    f"array shape {array.shape} does not match layout "
                    f"({rows}, {layout.num_fields})"
                )
            if array.dtype != np.int64:
                raise MetricsError(
                    f"metrics arrays are int64, got {array.dtype}"
                )
        self._array = array
        self._rows = [RowMetrics(layout, array[i]) for i in range(rows)]

    @classmethod
    def from_array(
        cls, layout: MetricsLayout, array: np.ndarray
    ) -> "MetricsRegistry":
        """Wrap a shared (or otherwise pre-allocated) metrics table."""
        return cls(layout, rows=array.shape[0], array=array)

    @property
    def layout(self) -> MetricsLayout:
        return self._layout

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def row(self, index: int) -> RowMetrics:
        return self._rows[index]

    def snapshot(self) -> List[Dict[str, object]]:
        """Detached snapshots of every row."""
        return [row.snapshot() for row in self._rows]


# ----------------------------------------------------------------------
# The process-global registry
# ----------------------------------------------------------------------

#: Process-wide counters with no better home (recovery runs, trace drops).
GLOBAL_METRIC_SPECS: Tuple[MetricSpec, ...] = (
    MetricSpec("recoveries_completed", COUNTER),
    MetricSpec("recovery_bytes_restored", COUNTER),
    MetricSpec("recovery_bytes_read", COUNTER),
    MetricSpec("recovery_log_bytes_read", COUNTER),
    MetricSpec("recovery_replay_ticks", COUNTER),
    MetricSpec("trace_events_dropped", COUNTER),
)

_GLOBAL_LAYOUT = MetricsLayout(GLOBAL_METRIC_SPECS)
_global: Optional[RowMetrics] = None


def global_registry() -> RowMetrics:
    """The process-wide metrics row (one home for stray counters).

    Forked children inherit a copy-on-write copy -- their increments stay
    private, exactly like any other in-process registry; cross-process
    publication goes through shared-arena registries instead.
    """
    global _global
    if _global is None:
        _global = MetricsRegistry(_GLOBAL_LAYOUT, rows=1).row(0)
    return _global


def reset_global_registry() -> None:
    """Drop the process-global row (test isolation)."""
    global _global
    _global = None
