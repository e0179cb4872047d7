"""Shared plumbing for the ``python -m repro`` command-line tools.

The reporting commands (``report``, ``perf``) speak the same dialect:

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

The module is stdlib-only: :data:`LEDGER_NAME` deliberately mirrors
``repro.harness.ledger.LEDGER_NAME`` rather than importing the
harness, so ``report`` and ``perf`` read a run without loading
``repro.harness``.
"""

from __future__ import annotations

import os
import sys
from typing import Callable

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


def find_ledger(runs_dir: str) -> str:
    """The ledger of the newest run under ``runs_dir`` (run ids sort
    by start time)."""
    if not os.path.isdir(runs_dir):
        raise CliError(
            f"runs directory {runs_dir!r} does not exist; "
            "pass a path or --runs-dir"
        )
    for run_id in sorted(os.listdir(runs_dir), reverse=True):
        path = os.path.join(runs_dir, run_id, LEDGER_NAME)
        if os.path.isfile(path):
            return path
    raise CliError(f"no {LEDGER_NAME} under {runs_dir!r}")


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
