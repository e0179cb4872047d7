#!/usr/bin/env python
"""Summarize a profiled run's trace.jsonl: top-N hottest span paths.

Usage::

    python scripts/trace_summary.py runs/<run-id>/trace.jsonl
    python scripts/trace_summary.py --runs-dir runs           # latest run
    python scripts/trace_summary.py --runs-dir runs --top 25

Exit codes::

    0  summary printed
    2  no usable trace (missing file, missing runs dir, torn/invalid
       JSONL) — CI uses this to catch a --profile run that silently
       stopped writing traces

Diagnostics go to stderr so a piped summary stays clean.
"""

import argparse
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.obs import TRACE_NAME, read_trace_jsonl, render_rollup
from repro.obs.cli import CliError, find_run_file, run_main


def find_trace(runs_dir: str) -> str:
    """The newest run directory under ``runs_dir`` containing a trace."""
    return find_run_file(
        runs_dir, TRACE_NAME, hint="was the run made with --profile?"
    )


def load_spans(trace_file: str) -> list:
    """Read spans, mapping I/O and parse failures to :class:`CliError`
    (a torn trace means the writer died mid-span — surface that as the
    missing-trace exit code, not a traceback)."""
    try:
        return read_trace_jsonl(trace_file)
    except FileNotFoundError:
        raise CliError(f"trace file {trace_file!r} does not exist")
    except (ValueError, OSError) as exc:
        raise CliError(f"unreadable trace {trace_file!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Summarize a profiled harness run's trace.jsonl: "
        "top-N hottest span paths (flame-style rollup).",
        epilog="examples:\n"
        "  python scripts/trace_summary.py runs/<run-id>/trace.jsonl\n"
        "  python scripts/trace_summary.py --runs-dir runs      "
        "# newest profiled run\n"
        "  python scripts/trace_summary.py --runs-dir runs --top 25\n"
        "\n"
        "exit codes: 0 = summary printed, 2 = no usable trace "
        "(missing or torn)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="path to a trace.jsonl (default: newest under --runs-dir)",
    )
    parser.add_argument(
        "--runs-dir",
        default="runs",
        metavar="DIR",
        help="runs directory to search when no trace path is given "
        "(default: runs)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rollup rows to show (default 10)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        trace_file = args.trace or find_trace(args.runs_dir)
        spans = load_spans(trace_file)
    except CliError as exc:
        print(f"trace_summary: error: {exc}", file=sys.stderr)
        return 2
    print(
        render_rollup(
            spans,
            top=args.top,
            title=f"Top {args.top} hottest span paths ({trace_file})",
        )
    )
    return 0


if __name__ == "__main__":
    run_main(main)
