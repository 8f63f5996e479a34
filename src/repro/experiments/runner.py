"""Command-line entry point: ``python -m repro.experiments <ids>``.

Examples::

    python -m repro.experiments fig2              # one figure, full scale
    python -m repro.experiments fig2 fig4 --quick # two figures, quick scale
    python -m repro.experiments all --quick       # everything
    python -m repro.experiments fig2 --jobs 8     # parallel sweep workers

Sweep-backed experiments run through
:class:`~repro.simulation.sweep.SweepEngine`: ``--jobs`` fans the
(workload point, algorithm) grid over worker processes, and generated
traces are cached on disk between runs (``--no-cache`` / ``--cache-dir``
control this).  Per-experiment engine stats land in ``--bench-out``
(default ``BENCH_sweep.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.cpu import available_cpu_count
from repro.experiments.common import FULL_SCALE, QUICK_SCALE
from repro.experiments.registry import (
    EXPERIMENT_IDS,
    experiment_parameters,
    run_experiment,
)
from repro.simulation.sweep import SweepEngine
from repro.workloads.cache import TraceCache, default_cache_dir


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'An Evaluation of "
            "Checkpoint Recovery for Massively Multiplayer Online Games' "
            "(VLDB 2009)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENT_IDS)}) or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sweeps and fewer ticks (seconds instead of minutes)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for sweep-backed experiments "
            "(default: all cores; 1 = serial)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk trace cache (always regenerate workloads)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            f"trace cache directory (default {default_cache_dir()}, "
            f"or $REPRO_CACHE_DIR)"
        ),
    )
    parser.add_argument(
        "--bench-out",
        default="BENCH_sweep.json",
        help=(
            "write per-experiment sweep-engine stats to this JSON file "
            "('' disables; default BENCH_sweep.json)"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        help="also export each experiment as CSV/JSON into this directory",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the selected experiments and print their reports."""
    args = build_parser().parse_args(argv)
    requested = list(args.experiments)
    if "all" in requested:
        requested = list(EXPERIMENT_IDS)
    unknown = [name for name in requested if name not in EXPERIMENT_IDS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}\n"
            f"known: {', '.join(EXPERIMENT_IDS)}",
            file=sys.stderr,
        )
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2

    scale = QUICK_SCALE if args.quick else FULL_SCALE
    cache = TraceCache(directory=args.cache_dir, enabled=not args.no_cache)
    sections = []
    bench = {
        "scale": scale.name,
        "jobs": args.jobs if args.jobs is not None else available_cpu_count(),
        "cache": {
            "enabled": cache.enabled,
            "directory": str(cache.directory),
        },
        "experiments": {},
    }
    for experiment_id in requested:
        accepted = experiment_parameters(experiment_id)
        kwargs = {}
        if "seed" in accepted:
            kwargs["seed"] = args.seed
        if "engine" in accepted:
            kwargs["engine"] = SweepEngine(jobs=args.jobs, cache=cache)
        started = time.perf_counter()
        result = run_experiment(experiment_id, scale=scale, **kwargs)
        elapsed = time.perf_counter() - started
        report = result.render()
        sections.append(report)
        print(report)
        print(f"({experiment_id} completed in {elapsed:.1f} s, "
              f"scale={scale.name})\n")
        record = {"wall_time_s": elapsed}
        if result.perf:
            record.update(result.perf)
        bench["experiments"][experiment_id] = record
        if args.export_dir:
            from repro.analysis.export import export_figure

            for path in export_figure(result, args.export_dir):
                print(f"exported {path}")
    bench["total_wall_time_s"] = sum(
        record["wall_time_s"] for record in bench["experiments"].values()
    )
    bench["total_cache_hits"] = sum(
        record.get("cache_hits", 0) for record in bench["experiments"].values()
    )
    bench["total_cache_misses"] = sum(
        record.get("cache_misses", 0)
        for record in bench["experiments"].values()
    )
    if args.bench_out:
        with open(args.bench_out, "w") as handle:
            json.dump(bench, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"sweep stats written to {args.bench_out}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(sections))
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
