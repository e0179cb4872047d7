#!/usr/bin/env python
"""CI smoke for the result cache: cold run, then warm run.

Drives the same preset twice against one content-addressed result
store and fails unless the second run is a pure cache replay:

* warm ``cache_hits`` == the task-graph cell count and
  ``cache_misses`` == 0 — the warm run computed nothing;
* the warm ledger is byte-identical to the cold one (rows replay
  verbatim, wall-time fields included);
* the rendered reports agree on ``science_text`` (everything except
  the wall-clock footer).

Each run's cache summary is left at ``<work-dir>/<cold|warm>/<run
id>/service.json`` (CI uploads both).

Usage::

    python scripts/cache_smoke.py                      # quick preset
    python scripts/cache_smoke.py --jobs 2 --work-dir cache-smoke
    python scripts/cache_smoke.py --preset smoke
"""

import argparse
import dataclasses
import io
import json
import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.harness import run_all  # noqa: E402
from repro.harness.config import HarnessConfig  # noqa: E402
from repro.harness.report import science_text  # noqa: E402
from repro.harness.runner import build_task_graph  # noqa: E402

PRESETS = {
    "smoke": HarnessConfig.smoke,
    "quick": HarnessConfig.quick,
    "default": HarnessConfig.default,
    "heavy": HarnessConfig.heavy,
}


class SmokeFailure(AssertionError):
    """A cache-smoke invariant did not hold."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run one preset cold then warm against a single "
        "result store and fail unless the warm run is a pure replay.",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=sorted(PRESETS),
        help="effort preset to smoke (default: quick)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes per run (default 2; cache counters are "
        "jobs-invariant)",
    )
    parser.add_argument(
        "--work-dir",
        default=None,
        metavar="DIR",
        help="holds the store and both runs (default: a temporary "
        "directory)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    return parser


def check(condition, message):
    if not condition:
        raise SmokeFailure(message)


def run_once(base, name, work_dir, jobs):
    config = dataclasses.replace(
        base,
        runs_dir=os.path.join(work_dir, name),
        store_dir=os.path.join(work_dir, "store"),
        jobs=jobs,
    )
    report = run_all(config=config, stream=io.StringIO(), quiet=True)
    (run_id,) = os.listdir(config.runs_dir)
    run_dir = os.path.join(config.runs_dir, run_id)
    with open(
        os.path.join(run_dir, "service.json"), "r", encoding="utf-8"
    ) as handle:
        summary = json.load(handle)
    return report, run_dir, summary


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    emit = (lambda line: None) if args.quiet else print
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="cache-smoke-")
    os.makedirs(work_dir, exist_ok=True)

    base = PRESETS[args.preset]()
    cells = len(build_task_graph(base))
    emit(
        f"[cache-smoke] preset={args.preset} jobs={args.jobs} "
        f"cells={cells} (work-dir {work_dir})"
    )

    cold_report, cold_dir, cold = run_once(base, "cold", work_dir, args.jobs)
    emit(
        f"[cache-smoke] cold: hits={cold['cache_hits']} "
        f"misses={cold['cache_misses']}"
    )
    check(
        cold["cache_hits"] == 0,
        f"cold run hit the cache ({cold['cache_hits']} hits) — "
        "the store was not empty",
    )
    check(
        cold["cache_misses"] == cells,
        f"cold run missed {cold['cache_misses']} cells, expected {cells}",
    )
    check(
        cold["store"]["entries"] == cells,
        f"store holds {cold['store']['entries']} entries after the "
        f"cold run, expected {cells}",
    )

    warm_report, warm_dir, warm = run_once(base, "warm", work_dir, args.jobs)
    emit(
        f"[cache-smoke] warm: hits={warm['cache_hits']} "
        f"misses={warm['cache_misses']}"
    )
    check(
        warm["cache_hits"] == cells,
        f"warm run hit only {warm['cache_hits']}/{cells} cells",
    )
    check(
        warm["cache_misses"] == 0,
        f"warm run computed {warm['cache_misses']} cells — "
        "the cache is not serving",
    )
    check(
        read(os.path.join(warm_dir, "ledger.jsonl"))
        == read(os.path.join(cold_dir, "ledger.jsonl")),
        "warm ledger differs from cold — rows did not replay verbatim",
    )
    check(
        science_text(warm_report) == science_text(cold_report),
        "warm report science differs from cold",
    )
    emit("[cache-smoke] warm run is a byte-identical replay")
    emit("[cache-smoke] OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as failure:
        print(f"[cache-smoke] FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
