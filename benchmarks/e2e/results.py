"""From a lifecycle's raw series to named metrics.

Two groups come out of every untraced lifecycle:

* the **end-to-end metrics** ``BENCHMARK.json`` bounds.  Only readings that
  repeat on this sandbox are in it: medians of CPU-bound work reported at
  reference host speed (see :mod:`calib`), the fastest of N identical
  recoveries, a CPU-time count, a byte count and a peak RSS;
* **diagnostics** that a user also sees but that this sandbox cannot
  repeat within a quarter, so they carry no bound and are printed with the
  per-layer numbers: everything that waits on ``fsync`` (the virtual disk
  writes freshly allocated blocks ~8x slower than overwritten ones, and
  which a fresh directory gets depends on what earlier runs left: the same
  7 MB flush reads 13 ms in one run and 110 ms in the next) and the
  per-period spikes (which sit in one of two regimes per process, ~9 or
  ~20 ms on ``tick_hot``).

Reference host speed is applied to every reading that is CPU work:
``tick_p50_ms`` and ``cmd_p50_ms`` segment by segment, ``setup_s``,
``cmd_cpu_us`` and ``recovery_min_ms`` (a warm-cache restore and replay is
copying and numpy, like a tick) over their phase.  Over TCP a command first waits for the
gateway's next tick, half a tick interval on average whatever the host's
speed, so only the rest of its wait is scaled (ten alternating runs at host
speeds 0.84-1.10: p50 = 2.5 ms + 4.1 ms x slowness, spread 0.13 as measured,
0.02 so scaled).  Such an entry says ``"scaled": true`` and keeps the
unscaled reading as ``raw``.  Byte counts and peak RSS are as measured.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

import measure
import workloads
from lifecycle import LifecycleResult

MIB = float(1 << 20)
#: Mean wait for the gateway's next tick: half its tick interval.
TIMER_WAIT_MS = workloads.GATEWAY_TICK_SECONDS / 2 * 1e3


def _scalar(value: float, samples: int,
            raw: Optional[float] = None) -> Dict[str, object]:
    """One reading; ``raw`` is the unscaled one when ``value`` was scaled."""
    return {"value": value, "raw": value if raw is None else raw,
            "samples": samples, "scaled": raw is not None}


def _median(values: Sequence[float], slowness: float) -> Dict[str, object]:
    """Median of ``values`` with its quartiles, at reference host speed."""
    q1, median, q3 = measure.quartiles(sorted(values))
    return {"value": median / slowness, "raw": median, "q1": q1 / slowness,
            "q3": q3 / slowness, "samples": len(values), "segments": 1}


def end_to_end(result: LifecycleResult, calibrator) -> Dict[str, dict]:
    """The bounded metrics of one untraced run, by name."""
    serve = result.serve
    speed = calibrator.speed
    latencies_ms = serve.ledger.latencies() * 1e3
    fastest_recovery = min(result.recovery.seconds) * 1e3
    cpu_us = serve.cpu_seconds / max(1, len(latencies_ms)) * 1e6
    setup = statistics.median(result.setup_seconds)
    return {
        # Mostly drawing the plans, forks and page faults: it follows the
        # host's speed (two ten-run sets on gateway_rate at 0.80x and 1.04x:
        # medians 30% apart as measured, equal when scaled).
        "setup_s": _scalar(setup / speed(*result.setup_window),
                           len(result.setup_seconds), raw=setup),
        "tick_p50_ms": measure.summarize(
            [seconds * 1e3 for seconds in serve.tick_seconds],
            measure.median_of, serve.tick_started, speed),
        # In process a command waits for one tick; over TCP it first waits
        # for the gateway's timer.
        "cmd_p50_ms": measure.summarize(
            latencies_ms, measure.median_of, serve.ledger.acked_due_times(),
            speed, fixed=TIMER_WAIT_MS if result.transport == "tcp" else 0.0),
        # Fixed commands per run, so this is the server's CPU for the serve
        # phase (ticks and checkpoint flushes) per command; CPU seconds
        # stretch with the host's slowness as walls do.
        "cmd_cpu_us": _scalar(
            cpu_us / speed(*serve.window), len(latencies_ms), raw=cpu_us),
        # Identical work N times over; interference only ever adds.
        "recovery_min_ms": _scalar(
            fastest_recovery / speed(*result.recovery.window),
            len(result.recovery.seconds), raw=fastest_recovery),
        "space_amp": _scalar(result.disk_bytes / result.spec.state_bytes, 1),
        "peak_rss_mb": _scalar(result.peak_rss_bytes / MIB, 1),
    }


def diagnostics(result: LifecycleResult, calibrator) -> Dict[str, dict]:
    """Unbounded readings of the same run: disk-paced and spike metrics.

    A *spike* is the slowest tick (or command) of a checkpoint period --
    ``cadence`` consecutive ticks, one cut among them; the metric is the
    median spike across periods, i.e. what a checkpoint costs the worst
    tick, with every period as one sample.
    """
    serve, spec = result.serve, result.spec
    serving = calibrator.speed(*serve.window)
    tick_ms = [seconds * 1e3 for seconds in serve.tick_seconds]
    mean_tick = statistics.fmean(tick_ms)
    return {
        # Ticks per second of time spent ticking: 1 / mean tick wall.
        "ticks_per_s": _scalar(1e3 / mean_tick * serving, len(tick_ms),
                               raw=1e3 / mean_tick),
        "tick_spike_p50_ms": _median(
            measure.period_maxima(tick_ms, spec.cadence), serving),
        "ckpt_commit_p50_ms": _median(
            [seconds * 1e3 for _, seconds in serve.commits], serving),
        "cmd_spike_p50_ms": _median(
            [seconds * 1e3 for seconds in
             serve.ledger.worst_latency_per_period(spec.cadence)],
            # TCP waits are paced by the gateway's timer (see end_to_end).
            1.0 if result.transport == "tcp" else serving),
        "recovery_p50_ms": _median(
            [seconds * 1e3 for seconds in result.recovery.seconds],
            calibrator.speed(*result.recovery.window)),
    }
