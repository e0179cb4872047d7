"""Fault-lifecycle & coverage observatory (``repro.obs.coverage``).

Gives every targeted fault a deterministic lifecycle record — how it
was selected (equivalence class, collapse level), how it resolved
(detected / redundant / aborted, with the abort-reason taxonomy that
splits the engines' single opaque ``aborted`` state), who detected it
(its own deterministic search vs another fault's test via fault
dropping, the random phase, or sequence breeding), and what the
resolution cost (backtracks, frames, sim events inside the fault's
search scope).  The records themselves are written by each engine
run's fault book (:class:`repro.atpg.result.FaultBook`), the one
place an engine keeps a fault's outcome.  Three pieces here:

* the taxonomy — the ``ABORT_*`` reasons and ``PROV_*`` provenances a
  record carries;
* the report layer — coverage-vs-cumulative-effort curves per cell and
  aggregated, the per-cell abort forensics the combined harness report
  embeds, and the cross-engine hard-fault ranking;
* the ledger core — ``lifecycle_core`` embeds the records in every ok
  ledger row (since RECORD_VERSION 5), read back by the CLI.

CLI (the lifecycle section of the combined observatory report)::

    python -m repro report <run-dir-or-ledger>

All records close at deterministic WorkClock-ordered points, so
reports and curves are byte-identical across
``--jobs`` levels and across cold vs warm cache runs.

This package deliberately never imports ``repro.atpg`` or
``repro.harness`` — the engines and harness import *us* (the
taxonomy constants live here for exactly that reason).
"""

from .taxonomy import (
    ABORT_BACKTRACK_LIMIT,
    ABORT_FRAME_LIMIT,
    ABORT_REASONS,
    ABORT_STALL,
    ABORT_TIME_BUDGET,
    INCIDENTAL_PROVENANCES,
    PROV_BREEDING,
    PROV_FAULT_DROP,
    PROV_RANDOM_PHASE,
    PROV_TARGETED,
)
from .report import (
    COVERAGE_SCHEMA_VERSION,
    MARK_PERCENTS,
    CellRecords,
    CoverageCurve,
    HardFault,
    cell_records_from_ledger_rows,
    coverage_curves,
    lifecycle_core,
    lifecycle_counter_block,
    rank_hard_faults,
    render_abort_forensics,
    render_coverage_curves,
    render_hard_faults,
    render_report,
)

__all__ = [
    "ABORT_BACKTRACK_LIMIT",
    "ABORT_FRAME_LIMIT",
    "ABORT_REASONS",
    "ABORT_STALL",
    "ABORT_TIME_BUDGET",
    "COVERAGE_SCHEMA_VERSION",
    "CellRecords",
    "CoverageCurve",
    "HardFault",
    "INCIDENTAL_PROVENANCES",
    "MARK_PERCENTS",
    "PROV_BREEDING",
    "PROV_FAULT_DROP",
    "PROV_RANDOM_PHASE",
    "PROV_TARGETED",
    "cell_records_from_ledger_rows",
    "coverage_curves",
    "lifecycle_core",
    "lifecycle_counter_block",
    "rank_hard_faults",
    "render_abort_forensics",
    "render_coverage_curves",
    "render_hard_faults",
    "render_report",
]
