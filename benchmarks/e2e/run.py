"""The end-to-end benchmark: five workloads, seven bounded metrics.

Two ways to run it, from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1``
    One workload, one run.  The last line of standard output is one JSON
    object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- every
    end-to-end metric with ``--trace 0``, every per-layer metric with
    ``--trace 1``.  This is what ``BENCHMARK.json`` names as the command.

``python3 benchmarks/e2e/run.py --seed S [--smoke] [--out DIR]``
    Every workload, untraced and then traced, each in its own process;
    prints every metric by name with unit, quartiles and sample count, and
    writes ``results.json`` plus ``trace-<workload>.json`` under ``--out``.
    ``--smoke`` runs 1/20 of the work, untraced only, with every check.

Nothing here writes ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
from compare import load_contract  # noqa: E402
import host  # noqa: E402
import lifecycle  # noqa: E402
import measure  # noqa: E402
import results  # noqa: E402
import workloads  # noqa: E402

SMOKE_SCALE = 1 / 20
#: Fresh processes an untraced run is split over (see measure_replicated).
REPLICAS = 3
#: The traced run does a third of the work, once untraced and once traced.
TRACE_SCALE = 1 / 3
DEFAULT_SCRATCH = os.path.join(REPO_ROOT, ".bench_e2e")


def result_path(out: str, workload: str, trace: int,
                replica: Optional[int] = None) -> str:
    suffix = "" if replica is None else f"-r{replica}"
    return os.path.join(out, f"result-{workload}-trace{trace}{suffix}.json")


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 workdir: str, out: str, replica: Optional[int] = None,
                 smoke: bool = False):
    """One ``run.py --workload`` in a fresh process.

    Returns its exit code and the result document it wrote (None when it
    wrote none); the file is consumed, so a stale one is never read.
    """
    path = result_path(out, workload, trace, replica)
    if os.path.exists(path):
        os.unlink(path)
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--workdir", workdir, "--out", out,
    ]
    if replica is not None:
        command += ["--replica", str(replica)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if not os.path.exists(path):
        return done.returncode, None
    with open(path) as handle:
        document = json.load(handle)
    os.unlink(path)
    return done.returncode, document


def measure_once(args) -> dict:
    """One lifecycle (or one traced pair) in this process; the document."""
    spec = workloads.workload_named(args.workload)
    scale = args.seconds / workloads.RUN_SECONDS
    workdir = os.path.join(args.workdir, f"{spec.name}-{os.getpid()}")
    deadline = args.seconds * workloads.OVERRUN_FACTOR

    calibrator = calib.HostCalibrator()
    calibrator.start()
    try:
        if args.trace:
            import traced
            document = traced.run(spec.scaled(scale * TRACE_SCALE), args.seed,
                                  workdir, deadline, calibrator, args.out)
        else:
            outcome = lifecycle.run_lifecycle(
                spec.scaled(scale), args.seed, workdir, deadline,
                setups=1 if args.smoke else workloads.SETUPS,
                exclude_pids=[calibrator.pid],
            )
            document = {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "checks": outcome.checks,
                "metrics": {**results.end_to_end(outcome, calibrator),
                            **results.diagnostics(outcome, calibrator)},
                "disk_high_water_bytes": outcome.disk_bytes,
            }
        document["host_speed"] = calibrator.speed(0.0, float("inf"))
    finally:
        calibrator.stop()
    return document


def measure_replicated(args) -> dict:
    """``REPLICAS`` lifecycles of 1/REPLICAS the work, each in a fresh
    process; every metric is the median of the replicas' readings.

    Some readings sit in one of two regimes for the life of a process (the
    fastest recovery on ``tick_hot``: ~16 or ~21 ms), whatever the length of
    the run; the median of three short processes repeats better than one
    long process does.
    """
    replicas = []
    for index in range(REPLICAS):
        code, document = run_workload(
            args.workload, args.seed * REPLICAS + index,
            args.seconds / REPLICAS, 0, args.workdir, args.out, replica=index)
        if document is None:
            raise RuntimeError(
                f"replica {index} exited with {code} and no result")
        replicas.append(document)
    metrics = {}
    for name in replicas[0]["metrics"]:
        readings = [replica["metrics"][name] for replica in replicas]
        q1, median, q3 = measure.quartiles(
            sorted(reading["value"] for reading in readings))
        metrics[name] = {
            "value": median, "q1": q1, "q3": q3,
            "raw": statistics.median(r["raw"] for r in readings),
            "samples": sum(reading["samples"] for reading in readings),
            "segments": len(readings),
            "scaled": readings[0].get("scaled", False),
        }
    return {
        "correct": all(replica["correct"] for replica in replicas),
        "attempted": sum(replica["attempted"] for replica in replicas),
        "failed": sum(replica["failed"] for replica in replicas),
        "checks": {check: all(r["checks"][check] for r in replicas)
                   for check in replicas[0]["checks"]},
        "metrics": metrics,
        "disk_high_water_bytes": max(
            replica["disk_high_water_bytes"] for replica in replicas),
        "host_speed": statistics.median(
            replica["host_speed"] for replica in replicas),
    }


def run_one(args) -> int:
    """One workload; writes the result file, prints the contract line last."""
    contract = load_contract()
    single = args.trace or args.smoke or args.replica is not None
    document = measure_once(args) if single else measure_replicated(args)
    document["workload"] = args.workload
    document["trace"] = args.trace
    document["host"] = host.host_facts(
        REPO_ROOT, args.workdir, workloads.FSYNC_POLICY, args.seed
    )
    path = result_path(args.out, args.workload, args.trace, args.replica)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)

    for check, passed in document["checks"].items():
        if not passed:
            print(f"CHECK FAILED: {check}", file=sys.stderr)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            entry["name"]: {
                "value": document["metrics"][entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in wanted
        },
    }))
    return 0 if document["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; prints and writes the record."""
    contract = load_contract()
    seconds = workloads.RUN_SECONDS * (SMOKE_SCALE if args.smoke else 1.0)
    record = {"seed": args.seed, "smoke": args.smoke, "claim": None,
              "workloads": {}}
    status = 0
    for spec in workloads.WORKLOADS:
        for trace in ((0,) if args.smoke else (0, 1)):
            code, document = run_workload(
                spec.name, args.seed, seconds, trace, args.workdir, args.out,
                smoke=args.smoke)
            if code != 0:
                status = 1
            if document is None:
                print(f"{spec.name} (trace {trace}): no result, exit code "
                      f"{code}")
                continue
            record["host"] = document["host"]
            entry = record["workloads"].setdefault(spec.name, {})
            entry["traced" if trace else "untraced"] = document
            print_document(contract, document)
    with open(os.path.join(args.out, "results.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"\nrecord written to {os.path.join(args.out, 'results.json')}")
    return status


def print_document(contract: dict, document: dict) -> None:
    kind = "per_layer" if document["trace"] else "end_to_end"
    title = "traced, per layer" if document["trace"] else "untraced"
    failed, attempted = document["failed"], document["attempted"]
    print(f"\n== {document['workload']} ({title}): "
          f"{'correct' if document['correct'] else 'INCORRECT'}, "
          f"{failed}/{attempted} operations failed, "
          f"host speed {document['host_speed']:.2f}x reference")
    for entry in contract[kind]:
        metric = document["metrics"][entry["name"]]
        line = f"  {entry['name']:<42}{metric['value']:>14.4f} {entry['unit']:<6}"
        if "q1" in metric:
            line += (f" q1 {metric['q1']:.4f} q3 {metric['q3']:.4f}"
                     f" n={metric['samples']}"
                     f" in {metric['segments']} segments")
        elif "samples" in metric:
            line += f" n={metric['samples']}"
        if metric.get("raw") not in (None, metric["value"]):
            line += f" (raw {metric['raw']:.4f})"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[
        spec.name for spec in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(workloads.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--replica", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--workdir",
                        default=os.path.join(DEFAULT_SCRATCH, "work"))
    parser.add_argument("--out", default=os.path.join(DEFAULT_SCRATCH, "out"))
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
