"""Statistics the harness reports: percentiles, segments, quartiles.

This host's speed moves in phases that last seconds, so one number per run
is not enough.  Every timing series is cut into equal-work segments, the
statistic is computed per segment, and the run reports the median across
segments with the quartiles and the sample count beside it.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Optional, Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
#: Tail percentiles the picker may fall back through, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Segments a series is cut into when it has samples enough.
TARGET_SEGMENTS = 6


def samples_needed(percentile: float) -> int:
    """Samples a series needs for ``percentile`` to have ten beyond it."""
    beyond_per_mille = 1000 - round(percentile * 10)  # exact for 99.9
    return math.ceil(MIN_SAMPLES_BEYOND * 1000 / beyond_per_mille)


def supported_percentile(count: int, wanted: float = 99.9) -> Optional[float]:
    """The highest tail percentile <= ``wanted`` with ten samples beyond it.

    Returns None when even the lowest candidate is unsupported (fewer than
    40 samples), in which case only the median is worth reporting.
    """
    for percentile in TAIL_PERCENTILES:
        if percentile <= wanted and count >= samples_needed(percentile):
            return percentile
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (no interpolation)."""
    if not len(values):
        raise ValueError("percentile of an empty series")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile (one value -> itself x3)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def period_maxima(values: Sequence[float], period: int) -> List[float]:
    """The largest value of each run of ``period`` consecutive samples
    (a trailing partial run is dropped)."""
    return [max(values[start:start + period])
            for start in range(0, len(values) - period + 1, period)]


def segment_bounds(count: int, per_segment_min: int) -> List[range]:
    """Index ranges cutting ``count`` samples into up to TARGET_SEGMENTS
    equal runs of consecutive samples, each at least ``per_segment_min``
    long (one segment when the series is short)."""
    pieces = max(1, min(TARGET_SEGMENTS, count // max(1, per_segment_min)))
    size = count // pieces
    return [range(i * size, (i + 1) * size) for i in range(pieces)]


def tail(values: Sequence[float], wanted: float = 99.0) -> Dict[str, float]:
    """The highest supported percentile <= ``wanted`` of ``values`` and
    which one it was, so a short run never prints a p99 it cannot back."""
    used = supported_percentile(len(values), wanted) or 50.0
    return {"value": percentile(values, used), "percentile": used,
            "samples": len(values)}


def median_of(piece: Sequence[float]) -> float:
    return percentile(piece, 50.0)


def summarize(values: Sequence[float],
              statistic: Callable[[Sequence[float]], float] = median_of,
              times: Optional[Sequence[float]] = None,
              speed: Optional[Callable[[float, float], float]] = None,
              fixed: float = 0.0) -> Dict[str, object]:
    """``statistic`` of each segment of ``values``, summarized across
    segments: median, quartiles, sample and segment counts.

    With ``times`` (one clock reading per sample) and ``speed`` (host
    slowness over a clock interval), the part of each segment's statistic
    beyond ``fixed`` (a wait on a timer, which no host speed changes) is
    divided by the host's slowness during that segment; the unscaled median
    is reported beside it as ``raw``.
    """
    if not len(values):
        raise ValueError("cannot summarize an empty series")
    raw, scaled = [], []
    for piece in segment_bounds(len(values), 2 * MIN_SAMPLES_BEYOND):
        reading = statistic(values[piece.start:piece.stop])
        raw.append(reading)
        if speed is not None:
            slowness = speed(times[piece.start], times[piece.stop - 1])
            reading = fixed + (reading - fixed) / slowness
        scaled.append(reading)
    q1, median, q3 = quartiles(scaled)
    return {
        "value": median,
        "raw": quartiles(raw)[1],
        "q1": q1,
        "q3": q3,
        "samples": len(values),
        "segments": len(scaled),
        "scaled": speed is not None,
    }
