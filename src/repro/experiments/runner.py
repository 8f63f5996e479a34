"""Command-line entry point: ``python -m repro.experiments <ids>``.

Examples::

    python -m repro.experiments fig2              # one figure, full scale
    python -m repro.experiments fig2 fig4 --quick # two figures, quick scale
    python -m repro.experiments all --quick       # everything

Experiments run serially in this process; each sweep reduces every distinct
trace once (:func:`~repro.simulation.sweep.run_sweep`), and a run's report
depends only on the ids, the scale and ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.common import FULL_SCALE, QUICK_SCALE
from repro.experiments.registry import EXPERIMENT_IDS, run_experiment


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

    scale = QUICK_SCALE if args.quick else FULL_SCALE
    sections = []
    for experiment_id in requested:
        started = time.perf_counter()
        result = run_experiment(experiment_id, scale=scale, seed=args.seed)
        elapsed = time.perf_counter() - started
        report = result.render()
        sections.append(report)
        print(report)
        print(f"({experiment_id} completed in {elapsed:.1f} s, "
              f"scale={scale.name})\n")
        if args.export_dir:
            from repro.analysis.export import export_figure

            for path in export_figure(result, args.export_dir):
                print(f"exported {path}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(sections))
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
