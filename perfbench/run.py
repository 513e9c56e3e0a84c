"""Performance ledger for the LAMS-DLC reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload link_saturated --seed 1 --seconds 20 --trace 0

Each run measures one workload in a fresh child process (``src`` on
``PYTHONPATH``, every ``REPRO_*`` variable removed, one BLAS thread), so
no state, environment knob or warm cache leaks between runs.  The
output is two JSON lines: the full record (stamps, outcome, sample
counts, every metric), then the summary line with exactly ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A/A mode runs the same checkout as two interleaved sets and reports,
per workload and end-to-end metric, each set's median and quartiles
and whether the medians agree within the metric's bound::

    python3 perfbench/run.py --aa --runs 5 --seconds 20

The workloads, their loop types and what each one stresses are listed
in ``BENCHMARK.json`` and in ``perfbench/cases.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_MARGIN_S = 150
"""Time a child may take beyond ``--seconds``: warm-up, set-ups, last unit."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_one(workload: str, seed: int, seconds: float, trace: int,
            scale: float = 1.0) -> dict[str, Any]:
    """Measure one workload in a child process; return its full record."""
    command = [sys.executable, os.path.join(HERE, "measure.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", str(scale)]
    proc = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=seconds + SETUP_MARGIN_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} failed (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(record: dict[str, Any]) -> dict[str, Any]:
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def load_benchmark() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def aa(runs: int, seconds: float) -> dict[str, Any]:
    """Two interleaved sets of runs of every workload, compared per metric."""
    workloads = workload_names()
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    values: dict[str, dict[str, list[list[float]]]] = {}
    for i in range(runs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            for workload in workloads:
                seed = 1000 * side + i + 1
                record = run_one(workload, seed, seconds, 0)
                if not record["correct"]:
                    raise RuntimeError(f"{workload} seed {seed}: {record['problems']}")
                for name, metric in record["end_to_end"].items():
                    sets = values.setdefault(workload, {}).setdefault(name, [[], []])
                    sets[side].append(metric["value"])
                print(f"run {i} set {'AB'[side]} {workload} done", file=sys.stderr)
    report: dict[str, Any] = {}
    for workload, metrics in values.items():
        for name, (a, b) in metrics.items():
            bound = bounds[name]["bound"]
            qa, qb = quartiles(a), quartiles(b)
            worse = (qb[1] - qa[1]) / qa[1]
            if bounds[name]["better"] == "higher":
                worse = -worse
            report.setdefault(workload, {})[name] = {
                "a": {"q1": qa[0], "median": qa[1], "q3": qa[2]},
                "b": {"q1": qb[0], "median": qb[1], "q3": qb[2]},
                "spread_a": (qa[2] - qa[0]) / qa[1],
                "spread_b": (qb[2] - qb[0]) / qb[1],
                "bound": bound,
                "agree": abs(worse) <= bound,
            }
    return report


def workload_names() -> list[str]:
    return [workload["name"] for workload in load_benchmark()["workloads"]]


def main(argv: list[str] | None = None) -> int:
    workloads = workload_names()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="compare two interleaved sets of runs of this checkout")
    parser.add_argument("--runs", type=int, default=5, help="runs per set in A/A mode")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure ({ROOT}/src/repro not found)",
              file=sys.stderr)
        return 2
    if args.aa:
        if args.runs < 2:
            parser.error("--runs must be at least 2")
        report = aa(args.runs, args.seconds)
        for workload, metrics in report.items():
            for name, row in metrics.items():
                print(f"{workload:22s} {name:20s} A {row['a']['median']:.6g} "
                      f"[{row['a']['q1']:.6g}, {row['a']['q3']:.6g}]  "
                      f"B {row['b']['median']:.6g} "
                      f"[{row['b']['q1']:.6g}, {row['b']['q3']:.6g}]  "
                      f"bound {row['bound']}  {'agree' if row['agree'] else 'DIFFER'}")
        print(json.dumps(report))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --aa is given")
    try:
        record = run_one(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
