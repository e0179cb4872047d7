"""CLI: ``python -m repro fault-analysis report [options]``.

Prints the static fault-analysis yield per circuit — fault universe,
equivalence classes, provably untestable classes, dominance-dropped
classes, final target list and checkpoint count — at the requested
collapse level, alongside the equivalence-only target count for
comparison.  CI attaches this report to the profiled smoke run so
collapse regressions are visible without rerunning anything.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ...obs.cli import write_output
from . import LEVELS, LEVEL_EQUIV, LEVEL_FULL, analyze_faults


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fault-analysis",
        description="Static fault-analysis reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="per-circuit collapse/untestable yield table"
    )
    report.add_argument(
        "--circuits",
        default=None,
        metavar="LIST",
        help="comma-separated paper circuit names "
        "(default: the full Table 2 suite)",
    )
    report.add_argument(
        "--level",
        default=LEVEL_FULL,
        choices=LEVELS,
        help=f"collapse level (default: {LEVEL_FULL})",
    )
    report.add_argument(
        "--retimed",
        action="store_true",
        help="also analyze each circuit's retimed sibling",
    )
    report.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the report to FILE",
    )
    return parser


def render_report(
    circuit_names: List[str], level: str, retimed: bool = False
) -> str:
    from ...harness.suite import build_pair, synthesize_named

    header = (
        f"{'circuit':16s} {'nodes':>6} {'faults':>7} {'equiv':>6} "
        f"{'untest':>7} {'dom':>6} {'targets':>8} {'ratio':>6} "
        f"{'ckpts':>6} {'ckpt-ratio':>10}"
    )
    lines = [
        f"Static fault analysis (level: {level})",
        header,
        "-" * len(header),
    ]
    for name in circuit_names:
        if retimed:
            pair = build_pair(name)
            variants = [
                (name, pair.original_circuit),
                (f"{name}.re", pair.retimed_circuit),
            ]
        else:
            variants = [(name, synthesize_named(name).circuit)]
        for label, circuit in variants:
            analysis = analyze_faults(circuit, level=level)
            equiv_only = analysis.equiv_representatives
            lines.append(
                f"{label:16s} {len(list(circuit.nodes())):>6} "
                f"{analysis.total_faults:>7} {len(equiv_only):>6} "
                f"{len(analysis.untestable):>7} "
                f"{len(analysis.dominated):>6} "
                f"{len(analysis.representatives):>8} "
                f"{analysis.collapse_ratio:>6.3f} "
                f"{len(analysis.checkpoints):>6} "
                f"{analysis.checkpoint_ratio:>10.3f}"
            )
    if level == LEVEL_EQUIV:
        lines.append(
            "(equiv level: targets = equivalence classes minus provably "
            "untestable ones)"
        )
    else:
        lines.append(
            "(targets = equivalence classes minus untestable and "
            "dominance-dropped ones; dropped classes are post-simulated "
            "at report time, so coverage stays exact)"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from ...harness.suite import TABLE2_CIRCUITS

    if args.circuits:
        names = [
            name.strip()
            for name in args.circuits.split(",")
            if name.strip()
        ]
    else:
        names = list(TABLE2_CIRCUITS)
    text = render_report(names, args.level, retimed=args.retimed)
    if args.output:
        write_output(args.output, text)
    print(text)
    return 0
