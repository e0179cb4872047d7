"""CLI: ``python -m repro report [source]`` — both ledger observatories.

Renders the search-state observatory's waste section (per-cell waste
attribution, original→retimed waste movement, waste↔density rank
correlation), then the fault-lifecycle observatory's section (abort
forensics, coverage-vs-effort curves, hard-fault ranking), from one
read of a run ledger.

The positional argument may be a run directory (``runs/<run-id>/``,
its ``ledger.jsonl`` is ingested) or a ``ledger.jsonl`` path; with no
argument the newest run under ``--runs-dir`` is used.  ``--targets``
additionally exports the hard-fault ranking as the machine-readable
JSON target list the ``hitec-cdl`` engine will consume.

Exit codes: 0 = report printed, 1 = the run has neither search
counters nor lifecycle records (a run predating both observatories, or
one with no ATPG cells), 2 = unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import coverage, search
from .cli import CliError, find_ledger, resolve_ledger, write_output
from .perf.record import load_ledger_rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description=(
            "Render the search-waste and fault-lifecycle observatory "
            "reports of one run ledger."
        ),
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
    parser.add_argument(
        "--targets",
        default=None,
        metavar="FILE",
        help="export the hard-fault ranking as a JSON target list "
        "for hitec-cdl",
    )
    return parser


def _report(args: argparse.Namespace) -> int:
    if args.source is not None:
        ledger = resolve_ledger(args.source)
    else:
        ledger = find_ledger(args.runs_dir)
    try:
        rows = load_ledger_rows(ledger)
    except OSError as exc:
        raise CliError(f"unreadable ledger {ledger!r}: {exc}")
    waste = search.waste_rows_from_ledger_rows(rows)
    cells = coverage.cell_records_from_ledger_rows(rows)
    text = "\n\n".join(
        [
            search.render_report(
                waste, title=f"Search-state observatory report ({ledger})"
            ),
            coverage.render_report(
                cells,
                title="Fault-lifecycle & coverage observatory report "
                f"({ledger})",
            ),
        ]
    )
    print(text)
    if args.output:
        write_output(args.output, text)
    if args.targets:
        targets = coverage.hard_fault_targets(
            coverage.rank_hard_faults(cells)
        )
        write_output(
            args.targets, json.dumps(targets, indent=2, sort_keys=True)
        )
    return 0 if waste or cells else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _report(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
