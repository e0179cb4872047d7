"""One front door for every repro CLI: ``python -m repro <command>``.

    python -m repro run quick --jobs 4          # tables/figures harness
    python -m repro lint my.blif                # static netlist analyzer
    python -m repro perf diff a.json b.json     # perf snapshots & gates
    python -m repro report runs/<run-id>        # what one run did
    python -m repro fault-analysis report       # static fault analyzer

Each command delegates, arguments untouched, to the ``main(argv)`` of
the matching subsystem CLI module (``repro.harness.cli``,
``repro.lint.cli``, ``repro.obs.perf.cli``, ``repro.obs.report``,
``repro.fault.analysis.cli``).  This is the only spelling: none of
those packages is runnable with ``python -m`` on its own.
"""

from __future__ import annotations

import argparse
import importlib
from typing import List, Optional

#: command -> (module with main(argv), summary line)
COMMANDS = {
    "run": ("repro.harness.cli", "regenerate the paper's tables and figures"),
    "lint": ("repro.lint.cli", "static netlist analyzer (DRC)"),
    "perf": ("repro.obs.perf.cli", "perf snapshots, diffs and gates"),
    "report": (
        "repro.obs.report",
        "one run's search-waste, fault-lifecycle and span-rollup report",
    ),
    "fault-analysis": (
        "repro.fault.analysis.cli",
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
