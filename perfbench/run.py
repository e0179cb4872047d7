#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search|simulate|pipeline|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the last line of
standard output is one JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run
(see ``perfbench/LAYERS.md``).  The line before it records the
environment: nproc, Python version, git commit and the jobs level.
Exit code 2 means the workload could not run (no program source, or a
configuration that would not give steady numbers).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("search", "simulate", "pipeline")

END_TO_END_UNITS: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "replay_s": "s",
    "fault_coverage_pct": "%",
    "fault_efficiency_pct": "%",
    "ok_frac": "ratio",
    "verified_frac": "ratio",
}


def git_sha(root: str) -> str:
    """The checkout's commit; ``unknown`` outside a git working tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Sequential-ATPG benchmark: one workload, one JSON result line."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None, help="default: config.json default_seed")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_metrics(outcome, trace: bool) -> Dict[str, Dict[str, float]]:
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.stats import median, ratio

    if trace:
        values = {
            name: median(run[name] for run in outcome.layer_runs)
            for name in PER_LAYER_UNITS
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = median(outcome.scaled["traced_wall_s"]) - median(
            outcome.scaled["wall_s"]
        )
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    passed = sum(outcome.checks.values())
    values = {
        "wall_s": median(outcome.scaled["wall_s"]),
        "setup_s": median(outcome.scaled["setup_s"]),
        "cpu_s": median(outcome.scaled["cpu_s"]),
        "peak_rss_mb": outcome.peak_rss_mb,
        "replay_s": median(outcome.scaled["replay_s"]),
        "fault_coverage_pct": outcome.coverage.get("fault_coverage_pct", 0.0),
        "fault_efficiency_pct": outcome.coverage.get("fault_efficiency_pct", 0.0),
        "ok_frac": ratio(outcome.attempted - outcome.failed, outcome.attempted),
        "verified_frac": ratio(passed, len(outcome.checks)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_one(args: argparse.Namespace) -> int:
    # Replace the script's own directory with the checkout root and the
    # program source; spawned workers inherit this path.
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import workloads
    from perfbench.stats import median

    os.makedirs(os.path.join(workloads.WORK_DIR, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(workloads.WORK_DIR, "tmp")
    config = workloads.load_config()
    spec = config["workloads"][args.workload]
    seed = config["default_seed"] if args.seed is None else args.seed
    outcome = workloads.Outcome()
    try:
        with workloads.Speed() as speed:
            workloads.WORKLOADS[args.workload](
                args.workload, spec, seed, args.seconds, bool(args.trace), speed, outcome
            )
    except workloads.Refused as exc:
        print(f"perfbench: refusing workload {args.workload!r}: {exc}", file=sys.stderr)
        return 2
    finally:
        workloads.stop_child_processes()
    correct = outcome.failed == 0 and all(outcome.checks.values()) and bool(outcome.checks)
    environment = {
        "workload": args.workload,
        "seed": seed,
        "jobs": spec["jobs"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "work_dir": workloads.WORK_DIR,
        "reference_loop_s": workloads.REFERENCE_LOOP_S,
        "speed_samples": len(speed.samples),
        "median_reference_loop_s": median(cpu for _, cpu, _ in speed.samples),
        "seconds_as_measured": outcome.raw,
        "seconds_at_reference_speed": outcome.scaled,
        "checks": outcome.checks,
    }
    print(json.dumps({"environment": environment}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result_metrics(outcome, bool(args.trace)),
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one table, one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:9s} {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            "perfbench: no program source at src/repro; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
