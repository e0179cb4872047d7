"""One front door for every repro CLI: ``python -m repro <command>``.

    python -m repro run quick --jobs 4        # tables/figures harness
    python -m repro lint --all                # static netlist analyzer
    python -m repro perf diff a.json b.json   # perf snapshots & gates
    python -m repro report runs/...           # search & coverage reports
    python -m repro fault-analysis dk16.ji.sd # static fault analyzer

Each command delegates, arguments untouched, to the matching
subsystem CLI (``repro.harness``, ``repro.lint``, ``repro.obs.perf``,
``repro.obs.report``, ``repro.fault.analysis``).  The per-subsystem
``python -m`` spellings keep working but print a one-line pointer
here.
"""

from __future__ import annotations

import argparse
import importlib
from typing import List, Optional

#: command -> (module with main(argv), summary line)
COMMANDS = {
    "run": ("repro.harness.__main__", "regenerate the paper's tables and figures"),
    "lint": ("repro.lint.__main__", "static netlist analyzer (DRC)"),
    "perf": ("repro.obs.perf.__main__", "perf snapshots, diffs and gates"),
    "report": (
        "repro.obs.report",
        "search-waste and fault-lifecycle observatory report",
    ),
    "fault-analysis": (
        "repro.fault.analysis.__main__",
        "static fault analyzer (collapse/dominance/untestable)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    epilog = "commands:\n" + "\n".join(
        f"  {name:<15} {summary}" for name, (_, summary) in COMMANDS.items()
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Sequential-ATPG reproduction toolkit.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(COMMANDS), metavar="command")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    module_name, _ = COMMANDS[args.command]
    module = importlib.import_module(module_name)
    return int(module.main(args.args) or 0)


if __name__ == "__main__":
    from .obs.cli import run_main

    run_main(main)
