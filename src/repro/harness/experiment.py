"""Run every experiment and emit an EXPERIMENTS-style report.

``python -m repro run`` regenerates all eight tables plus Figure 3
at the chosen effort level and prints them; the repository's
EXPERIMENTS.md embeds one such run.

Execution is delegated to :mod:`repro.harness.runner`: the experiment
is decomposed into crash-isolated cells, executed serially
(``jobs=1``) or on a spawned-worker pool, recorded in a durable JSONL
ledger under ``<runs_dir>/<run-id>/``, and the report is assembled
from ledger rows — so an interrupted run can be resumed with
``resume=<run-id>`` without recomputing completed cells.

Output goes through :class:`repro.harness.reporting.Reporter`
(logging-based): progress lines are suppressed by ``quiet=True``, the
report and ``profile=True`` summaries always print.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Optional

from ..obs import ROLLUP_ROWS, read_trace_jsonl, render_rollup
from ..obs.perf import (
    collect_environment,
    snapshot_from_ledger,
    write_snapshot,
)
from .config import HarnessConfig
from .report import assemble_report
from .reporting import Reporter
from .runner import RunResult, run_experiment


def run_all(
    config: Optional[HarnessConfig] = None,
    stream=None,
    jobs: Optional[int] = None,
    resume: Optional[str] = None,
    runs_dir: Optional[str] = None,
    profile: Optional[bool] = None,
    quiet: bool = False,
    reporter: Optional[Reporter] = None,
    perf_snapshot: Optional[str] = None,
    store_dir: Optional[str] = None,
) -> str:
    """Regenerate every table/figure; returns the combined report text.

    ``jobs``/``resume``/``runs_dir``/``profile``/``store_dir`` override
    the corresponding config fields.
    Progress lines go to ``stream`` (via the ``repro.harness`` logger)
    as cells complete; the report is also written to
    ``<run_dir>/report.txt``.  With profiling on, the assembled
    ``trace.jsonl`` is summarized as a per-phase rollup after the
    report.  ``perf_snapshot`` names a file to write
    the run's :class:`~repro.obs.perf.PerfSnapshot` to (one PerfRecord
    per completed cell, with environment provenance).

    With ``store_dir`` set the run is cache-first: cells whose
    canonical key is already stored are served from the cache (and
    fresh results stored back), producing byte-identical reports in a
    fraction of the time (see :mod:`repro.harness.cache`).
    """
    config = config or HarnessConfig.default()
    overrides = {}
    if jobs is not None:
        overrides["jobs"] = jobs
    if resume is not None:
        overrides["resume"] = resume
    if runs_dir is not None:
        overrides["runs_dir"] = runs_dir
    if profile is not None:
        overrides["profile"] = profile
    if store_dir is not None:
        overrides["store_dir"] = store_dir
    if overrides:
        config = dataclasses.replace(config, **overrides)

    owns_reporter = reporter is None
    reporter = reporter or Reporter(stream=stream, quiet=quiet)
    try:
        start = time.time()
        result: RunResult = run_experiment(config, emit=reporter.progress)
        report = assemble_report(
            config, result.records, elapsed_seconds=time.time() - start
        )
        report_path = os.path.join(result.run_dir, "report.txt")
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(report)
        reporter.progress(
            f"[runner] run {result.run_id} complete; "
            f"report at {report_path}"
        )
        if result.service_file:
            reporter.progress(
                f"[service] cache session summary at {result.service_file}"
            )
        reporter.report(report)
        if result.trace_file:
            reporter.report(_profile_summary(result))
        if perf_snapshot:
            snapshot = snapshot_from_ledger(
                result.ledger_file,
                environment=collect_environment(
                    jobs=config.jobs,
                    fingerprint=config.fingerprint(),
                ),
                fingerprint=config.fingerprint(),
            )
            write_snapshot(perf_snapshot, snapshot)
            reporter.progress(
                f"[runner] perf snapshot written to {perf_snapshot}"
            )
        return report
    finally:
        if owns_reporter:
            reporter.close()


def _profile_summary(result: RunResult) -> str:
    """Per-phase span rollup for a profiled run."""
    return render_rollup(
        read_trace_jsonl(result.trace_file),
        top=ROLLUP_ROWS,
        title=f"Profile: hottest span paths ({result.run_id})",
    )
