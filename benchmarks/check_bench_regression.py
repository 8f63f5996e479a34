#!/usr/bin/env python
"""Compare a BENCH_engine.json run against a committed baseline.

CI runs the smoke benchmark on every push; this script diffs the key
throughput/latency metrics against ``benchmarks/baselines/`` and emits a
GitHub Actions ``::warning::`` annotation for every metric that regressed by
more than ``--threshold`` (default 20%).  It never fails the build -- CI
runners are noisy shared machines, so a regression here is a prompt to look,
not a gate::

    PYTHONPATH=src python benchmarks/bench_engine.py --smoke
    python benchmarks/check_bench_regression.py BENCH_engine.json \
        --baseline benchmarks/baselines/BENCH_engine.smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: (json path, human label, higher_is_better)
KEY_METRICS = [
    (("single_shard", "sync", "ticks_per_second"),
     "single-shard sync throughput", True),
    (("single_shard", "async", "ticks_per_second"),
     "single-shard async throughput", True),
    (("single_shard", "async", "p99_tick_seconds"),
     "single-shard async p99 tick latency", False),
    (("single_shard", "async_mean_latency_speedup"),
     "async-over-sync latency speedup", True),
    (("durability_sweep", "never", "ticks_per_second"),
     "durability sweep (never) throughput", True),
    (("durability_sweep", "always", "ticks_per_second"),
     "durability sweep (always) throughput", True),
    (("flush_path", "log", "coalesced", "mib_per_second"),
     "log-layout coalesced flush throughput", True),
    (("flush_path", "double_backup", "coalesced", "mib_per_second"),
     "double-backup coalesced flush throughput", True),
    (("flush_path", "log", "throughput_improvement"),
     "log-layout coalesced-over-chunked ratio", True),
    (("flush_path", "double_backup", "throughput_improvement"),
     "double-backup coalesced-over-chunked ratio", True),
    (("coalescing", "coalesced", "ticks_per_second"),
     "coalesced pool throughput (fsync=commit)", True),
    (("admission_overload", "scales", "2x", "staleness", "p99_age_ticks"),
     "staleness admission p99 checkpoint age (2x backlog)", False),
    (("admission_overload", "scales", "2x", "staleness",
      "straggler_max_age_ticks"),
     "staleness admission straggler max age (2x backlog)", False),
    (("fleet_recovery", "speedup"),
     "modeled parallel recovery speedup", True),
]


def lookup(results: dict, path: tuple):
    node = results
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def fleet_metrics(results: dict):
    """Yield per-point fleet/pool throughput entries keyed by shape."""
    for point in results.get("fleet", []):
        yield (f"fleet {point['num_shards']} shard(s) throughput",
               point.get("ticks_per_second"), True)
    for point in results.get("writer_pool", []):
        yield (f"pooled fleet (pool={point['pool_size']}) throughput",
               point.get("ticks_per_second"), True)


def backend_scaling_metrics(results: dict):
    """Yield per-point thread/process backend throughput and efficiency."""
    scaling = results.get("backend_scaling", {})
    for point in scaling.get("points", []):
        shape = f"{point['backend']} backend {point['num_shards']} shard(s)"
        yield (f"{shape} throughput", point.get("ticks_per_second"), True)
        yield (f"{shape} scaling efficiency",
               point.get("scaling_efficiency"), True)
    if "process_speedup_at_max_shards" in scaling:
        yield ("process-over-thread aggregate speedup",
               scaling["process_speedup_at_max_shards"], True)


def frontdoor_metrics(results: dict):
    """Yield gateway serve-path throughput and latency keyed by shape."""
    frontdoor = results.get("frontdoor", {})
    for point in frontdoor.get("clients_scaling", []):
        shape = f"frontdoor {point['num_clients']} client(s)"
        yield (f"{shape} commands/s", point.get("commands_per_second"), True)
        yield (f"{shape} p99 command-to-apply latency",
               point.get("p99_seconds"), False)
    ab = frontdoor.get("ingestion_ab", {})
    for transport in ("ring", "pipe"):
        if transport in ab:
            yield (f"frontdoor {transport} ingestion commands/s",
                   ab[transport].get("commands_per_second"), True)
    if "ring_over_pipe_speedup" in ab:
        yield ("frontdoor ring-over-pipe speedup",
               ab.get("ring_over_pipe_speedup"), True)
    crash = frontdoor.get("crash_serve", {})
    if "survivor_p99_seconds" in crash:
        yield ("frontdoor crash-serve survivor p99",
               crash.get("survivor_p99_seconds"), False)
    telemetry = frontdoor.get("telemetry", {})
    if "tick_p99_us" in telemetry:
        yield ("frontdoor registry-scraped tick p99",
               telemetry.get("tick_p99_us"), False)


def telemetry_metrics(results: dict):
    """Yield registry-scraped tick latency and metrics-overhead entries."""
    section = results.get("telemetry", {})
    agreement = section.get("agreement", {})
    if "telemetry_p99_us" in agreement:
        yield ("telemetry registry tick p99",
               agreement.get("telemetry_p99_us"), False)
    overhead = section.get("overhead", {})
    for variant in ("metrics_on", "metrics_off"):
        point = overhead.get(variant, {})
        if "p99_tick_seconds" in point:
            yield (f"telemetry A/B ({variant}) p99 tick latency",
                   point.get("p99_tick_seconds"), False)
        if "ticks_per_second" in point:
            yield (f"telemetry A/B ({variant}) throughput",
                   point.get("ticks_per_second"), True)


#: Dynamic metric generators: labels are derived from the run's own points,
#: and only labels present in both runs are compared.
DYNAMIC_METRICS = [
    fleet_metrics, backend_scaling_metrics,
    frontdoor_metrics, telemetry_metrics,
]


def compare(current: dict, baseline: dict, threshold: float):
    """Yields (label, baseline_value, current_value, relative_change)."""
    pairs = [
        (label, lookup(baseline, path), lookup(current, path), higher)
        for path, label, higher in KEY_METRICS
    ]
    for metrics in DYNAMIC_METRICS:
        baseline_points = {
            label: (value, higher)
            for label, value, higher in metrics(baseline)
        }
        for label, value, higher in metrics(current):
            if label in baseline_points:
                pairs.append(
                    (label, baseline_points[label][0], value, higher)
                )
    for label, base, now, higher_is_better in pairs:
        if base is None or now is None or base == 0:
            continue
        change = (now - base) / abs(base)
        regressed = (
            change < -threshold if higher_is_better else change > threshold
        )
        yield label, base, now, change, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly produced BENCH_engine.json")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON to compare against")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="relative regression that triggers a warning "
                             "(default 0.2 = 20%%)")
    args = parser.parse_args(argv)

    with open(args.current) as handle:
        current = json.load(handle)
    with open(args.baseline) as handle:
        baseline = json.load(handle)

    regressions = 0
    for label, base, now, change, regressed in compare(
        current, baseline, args.threshold
    ):
        direction = f"{change:+.1%}"
        if regressed:
            regressions += 1
            print(f"::warning title=Benchmark regression::{label}: "
                  f"{base:.4g} -> {now:.4g} ({direction}, threshold "
                  f"{args.threshold:.0%})")
        else:
            print(f"  ok: {label}: {base:.4g} -> {now:.4g} ({direction})")

    if regressions:
        print(f"{regressions} metric(s) regressed beyond "
              f"{args.threshold:.0%} (warnings only; CI timing is noisy)",
              file=sys.stderr)
    else:
        print("no benchmark regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
