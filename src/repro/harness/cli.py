"""CLI: ``python -m repro run [preset] [--jobs N] [--resume ID]``.

Examples::

    python -m repro run smoke                 # serial smoke run
    python -m repro run --jobs 4              # default preset, 4 workers
    python -m repro run smoke --jobs 2 --task-timeout 120
    python -m repro run smoke --resume 20260806-101500-ab12cd
    python -m repro run --quick --profile     # deterministic profile

Every run writes ``<runs-dir>/<run-id>/`` containing ``ledger.jsonl``
(one JSON row per task attempt), ``config.json`` and ``report.txt``;
``--resume`` skips cells the ledger already records as complete.
``--profile`` additionally records trace spans per task, assembles
``trace.jsonl`` and prints a per-phase rollup; combined with
``--quick`` (the smoke preset on the deterministic virtual clock) the
span tree is byte-identical at any ``--jobs`` level.
"""

import argparse
import dataclasses
import sys

from .config import HarnessConfig
from .experiment import run_all

PRESETS = {
    "smoke": HarnessConfig.smoke,
    "quick": HarnessConfig.quick,
    "default": HarnessConfig.default,
    "heavy": HarnessConfig.heavy,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "preset",
        nargs="?",
        default="default",
        choices=sorted(PRESETS),
        help="effort preset (default: default)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (1 = in-process serial)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume an interrupted run, skipping completed cells",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="where run ledgers live (default: runs/)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock limit (jobs > 1 only)",
    )
    parser.add_argument(
        "--task-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries (with shrinking budget) before quarantining a cell",
    )
    parser.add_argument(
        "--tables",
        default=None,
        metavar="LIST",
        help="comma-separated subset of table1..table8,figure3",
    )
    parser.add_argument(
        "--collapse",
        default=None,
        choices=("equiv", "equiv+dom+checkpoint"),
        metavar="LEVEL",
        help="static fault-analysis level fed to the engines: 'equiv' "
        "or 'equiv+dom+checkpoint' (default; reports expand over the "
        "full fault universe at either level)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for the 'quick' preset (smoke effort on the "
        "deterministic virtual clock)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record trace spans, write <run>/trace.jsonl "
        "and print a per-phase rollup",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress lines (report and profile summaries "
        "still print)",
    )
    parser.add_argument(
        "--perf-snapshot",
        default=None,
        metavar="FILE",
        help="write the run's PerfSnapshot (one perf record per cell) "
        "to FILE; diff with python -m repro perf diff",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="content-addressed result store: serve already-computed "
        "cells from cache and store fresh ones (repro.service)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    preset = "quick" if args.quick else args.preset
    config = PRESETS[preset]()
    overrides = {}
    if args.task_timeout is not None:
        overrides["task_timeout_seconds"] = args.task_timeout
    if args.task_retries is not None:
        overrides["max_task_retries"] = args.task_retries
    if args.tables is not None:
        overrides["tables"] = tuple(
            name.strip() for name in args.tables.split(",") if name.strip()
        )
    if args.collapse is not None:
        overrides["collapse_level"] = args.collapse
    if overrides:
        config = dataclasses.replace(config, **overrides)
    run_all(
        config,
        stream=sys.stdout,
        jobs=args.jobs,
        resume=args.resume,
        runs_dir=args.runs_dir,
        profile=args.profile or None,
        quiet=args.quiet,
        perf_snapshot=args.perf_snapshot,
        store_dir=args.store,
    )
    return 0
