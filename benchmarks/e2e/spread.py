"""Run-to-run spread of every end-to-end metric, the way the gate sees it.

``python3 benchmarks/e2e/spread.py [--runs 10]`` runs each workload
``--runs`` times untraced, each time with another seed, and prints for
every metric the distance between the first and third quartile of its
values as a share of their median -- next to the bound ``BENCHMARK.json``
gives it.  A bound should be at least three times the spread seen here
(the driver exempts ``setup_s``, whose medians alone it compares).  The same
is printed for the unscaled (``raw``) readings, to show what reporting at
reference host speed buys.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from compare import load_contract  # noqa: E402

FIRST_SEED = 100
SCRATCH = os.path.join(run.DEFAULT_SCRATCH, "spread")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    runs = parser.parse_args(argv).runs
    contract = load_contract()
    os.makedirs(SCRATCH, exist_ok=True)
    worst = 0.0
    for workload in (entry["name"] for entry in contract["workloads"]):
        documents = []
        for seed in range(FIRST_SEED, FIRST_SEED + runs):
            code, document = run.run_workload(
                workload, seed, workloads.RUN_SECONDS, 0,
                os.path.join(SCRATCH, "work"), SCRATCH)
            if code != 0 or document is None:
                print(f"{workload} seed {seed}: exit code {code}")
                return 1
            documents.append(document)
        speeds = [d["host_speed"] for d in documents]
        print(f"\n{workload}: {runs} runs, host speed "
              f"{min(speeds):.2f}-{max(speeds):.2f}x reference")
        print(f"  {'metric':<22}{'median':>12}{'spread':>9}{'bound':>8}"
              f"{'raw median':>14}{'raw spread':>12}")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [d["metrics"][name]["value"] for d in documents]
            raws = [d["metrics"][name]["raw"] for d in documents]
            spread = measure.relative_spread(values)
            if name == "setup_s":
                flag = "  (exempt)"
            else:
                worst = max(worst, spread / bound)
                flag = "" if spread * 3 <= bound else (
                    "  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {name:<22}{measure.quartiles(values)[1]:>12.4f}"
                  f"{spread:>9.3f}{bound:>8.2f}"
                  f"{measure.quartiles(raws)[1]:>14.4f}"
                  f"{measure.relative_spread(raws):>12.3f}{flag}")
    print(f"\nworst spread is {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
