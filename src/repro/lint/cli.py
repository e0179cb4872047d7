"""CLI: ``python -m repro lint <file.blif> ... [options]``.

Exit codes:

* ``0`` — analyzer ran; no (non-suppressed) finding reached the
  ``--fail-on`` threshold;
* ``1`` — at least one finding at or above the threshold;
* ``2`` — usage error, unreadable input, or unparseable netlist.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from ..errors import ReproError
from .baseline import Baseline, baseline_from_reports
from .core import LintConfig, LintReport, REGISTRY, run_lint
from .report import render_json, render_rule_listing, render_text
from .severity import Severity


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Rule-based netlist DRC: static analysis before ATPG.",
    )
    parser.add_argument("files", nargs="*", help="BLIF netlists to analyze")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--fail-on",
        default="error",
        metavar="SEVERITY",
        help="exit 1 when a finding reaches this severity "
        "(note|warning|error; default: error)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULE",
        help="disable a rule by ID (repeatable), e.g. --disable DRC105",
    )
    parser.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="RULE=SEVERITY",
        help="override a rule's severity (repeatable), "
        "e.g. --severity DRC106=error",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline with the current findings and exit 0",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="combinational depth budget for DRC107",
    )
    parser.add_argument(
        "--max-fanout",
        type=int,
        default=None,
        help="fanout budget for DRC108",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def _parse_overrides(specs: List[str]) -> dict:
    overrides = {}
    for spec in specs:
        rule_id, _, severity = spec.partition("=")
        if not severity:
            raise ValueError(
                f"bad --severity {spec!r}; expected RULE=SEVERITY"
            )
        if rule_id not in REGISTRY:
            raise ValueError(f"--severity names unknown rule {rule_id!r}")
        overrides[rule_id] = Severity.parse(severity)
    return overrides


def _build_config(args: argparse.Namespace) -> LintConfig:
    for rule_id in args.disable:
        if rule_id not in REGISTRY:
            raise ValueError(f"--disable names unknown rule {rule_id!r}")
    config = LintConfig(
        disabled=frozenset(args.disable),
        severity_overrides=_parse_overrides(args.severity),
        fail_on=Severity.parse(args.fail_on),
    )
    if args.max_depth is not None:
        config = config.with_overrides(max_depth=args.max_depth)
    if args.max_fanout is not None:
        config = config.with_overrides(max_fanout=args.max_fanout)
    return config


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        sys.stdout.write(render_rule_listing(REGISTRY))
        return 0
    if not args.files:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: no input files (or --list-rules)\n")
        return 2
    if args.update_baseline and not args.baseline:
        sys.stderr.write("error: --update-baseline requires --baseline\n")
        return 2

    try:
        config = _build_config(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    from ..circuit.blif import load_blif

    reports: List[Tuple[str, LintReport]] = []
    for path in args.files:
        try:
            circuit = load_blif(path)
        except (OSError, ReproError) as exc:
            sys.stderr.write(f"error: {path}: {exc}\n")
            return 2
        reports.append((circuit.name, run_lint(circuit, config)))

    if args.update_baseline:
        baseline, annotations = baseline_from_reports(reports)
        baseline.save(args.baseline, annotations)
        sys.stderr.write(
            f"wrote {len(baseline)} fingerprint(s) to {args.baseline}\n"
        )
        return 0

    if args.baseline:
        baseline = Baseline.load(args.baseline)
        reports = [
            (scope, baseline.apply(report, scope))
            for scope, report in reports
        ]

    rendered = [report for _, report in reports]
    if args.format == "json":
        sys.stdout.write(render_json(rendered))
    else:
        sys.stdout.write(render_text(rendered))

    return max(report.exit_code(config.fail_on) for report in rendered)
