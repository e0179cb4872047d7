"""Shared plumbing for the observability command-line tools.

Every reporting CLI in this repository speaks the same dialect:

* exit code 0 — report printed;
* exit code 1 — findings (or no data to report on);
* exit code 2 — unreadable input, signalled by raising
  :class:`CliError` (diagnostics go to stderr so piped output stays
  clean);
* a positional source argument defaulting to "the newest run under
  ``--runs-dir``";
* an optional ``--output FILE`` duplicating the rendered text;
* a ``BrokenPipeError``-tolerant entry point (``... | head`` must not
  produce a traceback).

``repro.obs.report``, ``repro.obs.perf`` and
``scripts/trace_summary.py`` all build on these helpers instead of
re-implementing them.  This module must stay import-light (stdlib
only): the scripts import it before any heavy subsystem, and
:data:`LEDGER_NAME` deliberately mirrors
``repro.harness.ledger.LEDGER_NAME`` rather than importing the harness.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Optional

#: Mirrors repro.harness.ledger.LEDGER_NAME (no harness import here).
LEDGER_NAME = "ledger.jsonl"


class CliError(Exception):
    """Unreadable or unrecognizable input (CLI exit code 2)."""


def resolve_ledger(source: str) -> str:
    """Resolve one CLI argument (run directory or ledger path) to a
    ledger path."""
    if os.path.isdir(source):
        ledger = os.path.join(source, LEDGER_NAME)
        if not os.path.isfile(ledger):
            raise CliError(
                f"{source!r} is a directory without a {LEDGER_NAME}"
            )
        return ledger
    if not os.path.isfile(source):
        raise CliError(f"no such run or ledger: {source!r}")
    return source


def find_run_file(
    runs_dir: str, filename: str, hint: Optional[str] = None
) -> str:
    """The newest run directory under ``runs_dir`` containing
    ``filename`` (run ids sort by start time)."""
    if not os.path.isdir(runs_dir):
        raise CliError(
            f"runs directory {runs_dir!r} does not exist; "
            "pass a path or --runs-dir"
        )
    for run_id in sorted(os.listdir(runs_dir), reverse=True):
        path = os.path.join(runs_dir, run_id, filename)
        if os.path.isfile(path):
            return path
    message = f"no {filename} under {runs_dir!r}"
    if hint:
        message += f"; {hint}"
    raise CliError(message)


def find_ledger(runs_dir: str) -> str:
    """The newest run ledger under ``runs_dir``."""
    return find_run_file(runs_dir, LEDGER_NAME)


def write_output(path: str, text: str) -> None:
    """Write rendered report text to ``path`` (creating parents)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def run_main(main: Callable[[], int]) -> None:
    """``sys.exit(main())`` with the shared BrokenPipeError discipline
    (e.g. ``... | head`` closing the pipe exits 0, not a traceback)."""
    try:
        sys.exit(main())
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
