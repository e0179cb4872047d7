"""Report assembly from run-ledger rows.

:func:`assemble_report` builds the combined experiment report *from
run-ledger rows*: the runner executes cells in any order, on any
number of workers, and this module reconstructs the canonical Tables
1-8 + Figure 3 + DRC-summary report from whatever the ledger recorded.
Each section renders through its own ``Table.render`` or
``figure3.render``.  Quarantined cells become ``[aborted]`` placeholder
rows instead of exceptions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import dataclasses

from ..obs.coverage import (
    cell_records_from_ledger_rows,
    render_abort_forensics,
)
from ..obs.perf import record_from_ledger_row, render_effort_attribution
from ..obs.search import render_waste_attribution, waste_rows_from_ledger_rows
from . import ledger as ledger_mod
from .figure3 import Curve
from .ledger import TaskRecord


#: Prefix of the one report line carrying wall-clock time.
WALL_TIME_LINE_PREFIX = "total harness time: "


def science_text(report: str) -> str:
    """The report minus its wall-clock footer.

    The report analogue of :data:`repro.harness.ledger
    .WALL_TIME_FIELDS`: every line except the harness-time footer is a
    pure function of the ledger's science rows, so equivalence checks
    (serial vs parallel, cold vs warm cache) compare this text.
    """
    return "\n".join(
        line
        for line in report.splitlines()
        if not line.startswith(WALL_TIME_LINE_PREFIX)
    )


def assemble_report(
    config,
    records: List[TaskRecord],
    elapsed_seconds: Optional[float] = None,
) -> str:
    """Rebuild the canonical combined report from run-ledger rows.

    Rows are keyed to tasks of the canonical task graph, so the output
    is independent of cell completion order — ``jobs=1`` and ``jobs=8``
    runs of the same config produce byte-identical tables.  A cell with
    no successful record contributes ``[aborted]`` placeholder rows.
    """
    # Imported here: runner imports the table modules this module also
    # needs, keeping report importable from runner-free contexts.
    from . import figure3, table1, table2, table3, table4
    from . import table5, table6, table7, table8
    from .runner import SECTIONS, build_task_graph, wants

    graph = build_task_graph(config)
    completed = ledger_mod.completed_by_key(records, config.fingerprint())

    section_rows: Dict[str, List[dict]] = {s: [] for s in SECTIONS}
    curves: List[Curve] = []
    aborted_sections: List[str] = []
    lint_groups: List[List[dict]] = []
    for task in graph:
        record = completed.get(task.key)
        if record is None:
            if task.pair is not None:
                for section in task.tables:
                    if wants(config, section):
                        section_rows[section].append(
                            {"circuit": f"{task.pair} [aborted]"}
                        )
            else:
                aborted_sections.extend(task.tables)
            continue
        lint_groups.append(record.payload.get("lint", []))
        for section, rows in record.payload.get("tables", {}).items():
            section_rows[section].extend(rows)
        if task.kind == "figure3":
            curves = [
                Curve.from_dict(data)
                for data in record.payload.get("curves", [])
            ]

    builders = {
        "table1": table1.build_table,
        "table2": table2.build_table,
        "table3": table3.build_table,
        "table4": table4.build_table,
        "table5": table5.build_table,
        "table6": table6.build_table,
        "table7": table7.build_table,
        "table8": table8.build_table,
    }
    blocks: List[str] = []
    for section in SECTIONS:
        if not wants(config, section):
            continue
        if section in aborted_sections:
            blocks.append(
                f"[{section} aborted after retries; see the run ledger]"
            )
        elif section == "figure3":
            blocks.append(figure3.render(curves))
        else:
            blocks.append(builders[section](section_rows[section]).render())

    blocks.append(
        ledger_mod.render_lint_summary(
            ledger_mod.merge_lint_entries(lint_groups),
            title=f"Static analysis (DRC) gate [{config.lint_mode}]",
        )
    )
    # The observatory sections below read the completed rows in
    # canonical task order.
    ledger_rows = [
        dataclasses.asdict(completed[task.key])
        for task in graph
        if task.key in completed
    ]
    # Effort attribution: deterministic search counters per cell (no
    # wall fields, so the section stays byte-identical across --jobs
    # levels like the tables above).
    blocks.append(
        render_effort_attribution(
            record_from_ledger_row(row) for row in ledger_rows
        )
    )
    # Search-waste attribution: invalid-state classification per cell,
    # joined with density of encoding from the same rows (also purely
    # deterministic — byte-identical across --jobs levels).
    blocks.append(
        render_waste_attribution(waste_rows_from_ledger_rows(ledger_rows))
    )
    # Coverage & abort forensics: per-cell detection provenance and the
    # abort-reason taxonomy from the lifecycle records (deterministic —
    # byte-identical across --jobs levels like the blocks above).
    blocks.append(
        render_abort_forensics(cell_records_from_ledger_rows(ledger_rows))
    )
    if elapsed_seconds is not None:
        blocks.append(f"total harness time: {elapsed_seconds:.0f}s")
    return "".join(block + "\n\n" for block in blocks)
