"""CLI: ``python -m repro report [source]`` — what one run did.

Renders, from one run directory, the search-state observatory's waste
section (per-cell waste attribution, original→retimed waste movement,
waste↔density rank correlation) and the fault-lifecycle observatory's
section (abort forensics, coverage-vs-effort curves, hard-fault
ranking), both from one read of the run ledger; then, when the run
holds a ``trace.jsonl``, its hottest span paths.

The positional argument may be a run directory (``runs/<run-id>/``)
or a ``ledger.jsonl`` path, whose directory is the run; with no
argument the newest run under ``--runs-dir`` is used.

Exit codes: 0 = report printed, 1 = the run has neither search
counters, lifecycle records nor trace spans (a run predating the
observatories, or one with no ATPG cells), 2 = unreadable input,
including a run whose ``config.json`` says it was profiled but whose
``trace.jsonl`` is missing or torn.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from . import coverage, search
from .cli import CliError, LEDGER_NAME, find_ledger, write_output
from .export import ROLLUP_ROWS, TRACE_NAME, read_trace_jsonl, render_rollup
from .perf.record import load_ledger_rows

#: Written by the harness runner next to the ledger.
CONFIG_NAME = "config.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description=(
            "Render one run's search-waste and fault-lifecycle "
            "observatory reports and, for a traced run, its hottest "
            "span paths."
        ),
        epilog="exit codes: 0 = report printed, 1 = nothing to report, "
        "2 = unreadable input or a profiled run without a usable trace",
    )
    parser.add_argument(
        "source",
        nargs="?",
        default=None,
        help="run directory or ledger.jsonl (default: newest run "
        "under --runs-dir)",
    )
    parser.add_argument(
        "--runs-dir",
        default="runs",
        metavar="DIR",
        help="runs directory to search when no source is given "
        "(default: runs)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the rendered report to FILE",
    )
    return parser


def _profiled(run_dir: str) -> bool:
    """Whether the run's ``config.json`` says it ran with ``--profile``
    (a run without one, such as a hand-made ledger, was not)."""
    path = os.path.join(run_dir, CONFIG_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return False
    except (OSError, ValueError) as exc:
        raise CliError(f"unreadable run config {path!r}: {exc}")
    config = data.get("config") if isinstance(data, dict) else None
    return isinstance(config, dict) and config.get("profile") is True


def _load_spans(run_dir: str) -> Optional[List[Dict[str, Any]]]:
    """The run's trace spans; ``None`` for an unprofiled run without a
    trace.  A torn trace means the writer died mid-span, and a profiled
    run without one stopped writing traces: both are exit code 2."""
    path = os.path.join(run_dir, TRACE_NAME)
    if not os.path.isfile(path):
        if _profiled(run_dir):
            raise CliError(f"profiled run {run_dir!r} has no {TRACE_NAME}")
        return None
    try:
        return read_trace_jsonl(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"unreadable trace {path!r}: {exc}")


def _report(args: argparse.Namespace) -> int:
    source = args.source
    if source is None:
        source = find_ledger(args.runs_dir)
    if os.path.isdir(source):
        run_dir, ledger = source, os.path.join(source, LEDGER_NAME)
    elif os.path.isfile(source):
        run_dir, ledger = os.path.dirname(source) or ".", source
    else:
        raise CliError(f"no such run or ledger: {source!r}")
    spans = _load_spans(run_dir)
    sections = []
    waste, cells = [], []
    if os.path.isfile(ledger):
        try:
            rows = load_ledger_rows(ledger)
        except OSError as exc:
            raise CliError(f"unreadable ledger {ledger!r}: {exc}")
        waste = search.waste_rows_from_ledger_rows(rows)
        cells = coverage.cell_records_from_ledger_rows(rows)
        sections += [
            search.render_report(
                waste, title=f"Search-state observatory report ({ledger})"
            ),
            coverage.render_report(
                cells,
                title="Fault-lifecycle & coverage observatory report "
                f"({ledger})",
            ),
        ]
    elif spans is None:
        raise CliError(
            f"{source!r} is a directory without a {LEDGER_NAME} "
            f"or {TRACE_NAME}"
        )
    if spans is not None:
        sections.append(
            render_rollup(
                spans,
                top=ROLLUP_ROWS,
                title="Hottest span paths "
                f"({os.path.join(run_dir, TRACE_NAME)})",
            )
        )
    text = "\n\n".join(sections)
    if args.output:
        write_output(args.output, text)
    print(text)
    return 0 if waste or cells or spans else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _report(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
