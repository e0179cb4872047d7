#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload search --seeds 1 2 3 4 5 \
        [--seconds 25]

Runs the workload once per seed, one run at a time, and prints for
each metric the median, the quartiles and the spread (inter-quartile
distance as a share of the median) next to the bound that
``BENCHMARK.json`` fixes for it.  The benchmark is steady when every
spread but that of ``setup_s`` sits well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT]

from perfbench.stats import summarize  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    values = {}
    for seed in args.seeds:
        command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for name, series in values.items():
        stats = summarize(series)
        bound = bounds.get(name)
        print(f"{name:34s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}  "
              f"q3 {stats['q3']:12.6g}  spread {stats['spread']:.4f}"
              + (f"  bound {bound}" if bound is not None else ""))
        print("    " + " ".join(f"{value:.4g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
