"""Gate one benchmark record against another.

``python3 benchmarks/e2e/compare.py A.json B.json`` reads two ``results.json``
records written by ``run.py`` (A the parent, B the change) and prints, for
every end-to-end metric on every workload, one of

* ``within-bound`` -- B is no worse than A by more than the metric's bound;
* ``regressed``    -- B is worse than A by more than the bound, and so is
  B's better quartile against A's worse one (a record's quartiles are those
  of its three processes);
* ``unresolved``   -- the pair cannot tell a regression from noise: only the
  medians are further apart than the bound, or either record's own
  quartiles are, or the metric is reported at reference host speed and the
  two records' host speeds differ by more than the bound.

One pair of records resolves little on a noisy host (``recovery_min_ms``
moves by 15% from run to run); a claim rests on ten alternating pairs.

The bounds and the direction of each metric come from ``BENCHMARK.json``.
Exits non-zero on any regression, on a higher share of failed operations,
or when B is incorrect: the gate ``check_bench_regression.py`` never was.
"""

from __future__ import annotations

import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_contract() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``
    (negative when it improved)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def own_spread(metric: dict) -> float:
    """A record's within-run spread of one metric: quartile distance over
    the median across its segments (0 for a single reading)."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / metric["value"]


def verdict(before: dict, after: dict, better: str, bound: float,
            host_speeds=(1.0, 1.0)) -> str:
    if (before.get("scaled")
            and abs(host_speeds[1] / host_speeds[0] - 1.0) > bound):
        return "unresolved"
    if worsening(before["value"], after["value"], better) > bound:
        worse_side, better_side = (("q3", "q1") if better == "lower"
                                   else ("q1", "q3"))
        apart = worsening(before.get(worse_side, before["value"]),
                          after.get(better_side, after["value"]), better)
        return "regressed" if apart > bound else "unresolved"
    if max(own_spread(before), own_spread(after)) > bound:
        return "unresolved"
    return "within-bound"


def failed_share(document: dict) -> float:
    return document["failed"] / max(1, document["attempted"])


def compare(parent: dict, change: dict) -> int:
    contract = load_contract()
    regressions = 0
    for workload in (entry["name"] for entry in contract["workloads"]):
        before = parent["workloads"][workload]["untraced"]
        after = change["workloads"][workload]["untraced"]
        print(f"\n{workload}")
        for metric in contract["end_to_end"]:
            name, bound, better = (metric["name"], metric["bound"],
                                   metric["better"])
            old, new = before["metrics"][name], after["metrics"][name]
            outcome = verdict(old, new, better, bound,
                              (before["host_speed"], after["host_speed"]))
            worse = worsening(old["value"], new["value"], better)
            print(f"  {name:<22}{old['value']:>12.4f} -> {new['value']:>12.4f}"
                  f"  {worse:+7.1%} (bound {bound:.0%})  {outcome}")
            regressions += outcome == "regressed"
        old_share, new_share = failed_share(before), failed_share(after)
        print(f"  {'ops_failed_frac':<22}{old_share:>12.6f} -> "
              f"{new_share:>12.6f}")
        if new_share > old_share or not after["correct"]:
            print("  more operations failed, or a correctness check did")
            regressions += 1
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    return compare(*records)


if __name__ == "__main__":
    sys.exit(main())
