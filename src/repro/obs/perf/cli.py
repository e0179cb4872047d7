"""CLI: ``python -m repro perf diff <baseline> <current>``.

Each positional argument may be:

* a PerfSnapshot JSON (baseline file, ``BENCH_<n>.json``, or a
  ``scripts/perf_snapshot.py --output`` file);
* a run directory (``runs/<run-id>/``) — its ``ledger.jsonl`` is
  ingested, and if both sides are run directories with a
  ``trace.jsonl`` the flame-rollup diff is appended;
* a ``ledger.jsonl`` path;
* a pytest-benchmark ``--benchmark-json`` export.

Exit codes: 0 = gate passes, 1 = counter regression (or any delta
with ``--fail-on any-delta``), 2 = unreadable input.  Wall time and
peak RSS are compared against tolerance bands but never affect the
exit code: on shared CI hardware only the deterministic WorkClock
counters are attributable to a code change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Tuple

from ..cli import CliError, resolve_ledger, write_output
from ..export import TRACE_NAME, read_trace_jsonl
from .record import (
    PerfSnapshot,
    load_ledger_rows,
    load_snapshot,
    records_from_pytest_benchmark,
    snapshot_from_ledger,
)
from .diff import (
    REGRESSION,
    diff_rollups,
    diff_snapshots,
    render_diff,
    render_effort_attribution,
    render_rollup_diff,
)


def load_source(path: str) -> Tuple[PerfSnapshot, Optional[str]]:
    """Resolve one CLI argument to ``(snapshot, run_dir-or-None)``."""
    if os.path.isdir(path) or path.endswith(".jsonl"):
        # resolve_ledger raises the shared CliError on a dir without a
        # ledger or a missing file (exit code 2 either way).
        ledger = resolve_ledger(path)
        snapshot = snapshot_from_ledger(ledger)
        if not snapshot.records and not _holds_ledger_rows(ledger):
            raise CliError(f"{ledger!r} holds rows but no ledger row")
        return snapshot, os.path.dirname(ledger) or "."
    if not os.path.isfile(path):
        raise CliError(f"no such snapshot, ledger or run: {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:
        raise CliError(f"unparseable JSON in {path!r}: {exc}")
    if isinstance(data, dict) and "benchmarks" in data:
        return (
            PerfSnapshot(records=records_from_pytest_benchmark(data)),
            None,
        )
    if isinstance(data, dict) and "records" in data:
        return PerfSnapshot.from_dict(data), None
    raise CliError(
        f"{path!r} is neither a PerfSnapshot nor a pytest-benchmark "
        "export"
    )


def _holds_ledger_rows(ledger: str) -> bool:
    """True unless ``ledger`` holds JSON rows of which none is a task
    attempt (e.g. a ``trace.jsonl`` passed by mistake); an empty
    ledger is a run with no attempts yet, not a foreign file."""
    rows = load_ledger_rows(ledger)
    return not rows or any(
        "key" in row and "outcome" in row for row in rows
    )


def _maybe_rollup_diff(
    baseline_dir: Optional[str], current_dir: Optional[str]
) -> Optional[str]:
    if not baseline_dir or not current_dir:
        return None
    base_trace = os.path.join(baseline_dir, TRACE_NAME)
    curr_trace = os.path.join(current_dir, TRACE_NAME)
    if not (os.path.isfile(base_trace) and os.path.isfile(curr_trace)):
        return None
    rows = diff_rollups(
        read_trace_jsonl(base_trace), read_trace_jsonl(curr_trace)
    )
    return render_rollup_diff(rows, top=20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description=(
            "Compare performance snapshots: exact on deterministic "
            "counters, tolerance bands on wall time and RSS."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser(
        "diff", help="diff two snapshots / run ledgers; exit 1 on "
        "counter regression"
    )
    diff.add_argument("baseline", help="snapshot JSON, run dir or ledger")
    diff.add_argument("current", help="snapshot JSON, run dir or ledger")
    diff.add_argument(
        "--wall-tolerance",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="relative wall-seconds band (default 0.25 = ±25%%)",
    )
    diff.add_argument(
        "--rss-tolerance",
        type=float,
        default=0.50,
        metavar="FRAC",
        help="relative peak-RSS band (default 0.50)",
    )
    diff.add_argument(
        "--fail-on",
        choices=(REGRESSION, "any-delta", "never"),
        default=REGRESSION,
        help="what makes the exit code non-zero (default: regression)",
    )
    diff.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also write the rendered diff to FILE",
    )

    show = sub.add_parser(
        "show", help="render one snapshot's effort-attribution table"
    )
    show.add_argument("source", help="snapshot JSON, run dir or ledger")
    return parser


def _cmd_diff(args: argparse.Namespace) -> int:
    baseline, baseline_dir = load_source(args.baseline)
    current, current_dir = load_source(args.current)
    diff = diff_snapshots(
        baseline,
        current,
        wall_tolerance=args.wall_tolerance,
        rss_tolerance=args.rss_tolerance,
    )
    sections = [
        render_diff(
            diff,
            title=f"Perf diff ({args.baseline} -> {args.current})",
            fail_on=args.fail_on,
        )
    ]
    rollup = _maybe_rollup_diff(baseline_dir, current_dir)
    if rollup:
        sections.append(rollup)
    text = "\n\n".join(sections)
    if args.report:
        write_output(args.report, text)
    print(text)
    return 1 if diff.gate_failures(args.fail_on) else 0


def _cmd_show(args: argparse.Namespace) -> int:
    snapshot, _ = load_source(args.source)
    env = snapshot.environment
    if env:
        pairs = ", ".join(
            f"{key}={env[key]}" for key in sorted(env) if env[key]
        )
        print(f"environment: {pairs}")
    print(render_effort_attribution(snapshot.sorted().records))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "diff":
            return _cmd_diff(args)
        return _cmd_show(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
