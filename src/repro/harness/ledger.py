"""Durable JSONL run ledger for the experiment runner.

Every task attempt the runner makes — success, crash, timeout or
quarantine — is appended as one JSON line to
``<runs_dir>/<run-id>/ledger.jsonl``.  The ledger is the run's single
source of truth: the final report is assembled *from ledger rows*, and
``--resume <run-id>`` replays it to skip completed cells.

Record schema (one JSON object per line)::

    {
      "v": 7,                     # record version
      "key": "table2:hitec:dk16.ji.sd",
      "kind": "hitec_pair",       # task kind (see runner.TaskSpec)
      "pair": "dk16.ji.sd",       # circuit pair, null for global tasks
      "engine": "hitec",          # engine, null for non-ATPG tasks
      "tables": ["table2", "table6", "table8"],
      "fingerprint": "…",         # HarnessConfig.fingerprint()
      "attempt": 0,               # 0 = first try
      "budget_scale": 1.0,        # effort multiplier this attempt ran at
      "outcome": "ok",            # ok | crashed | timeout | quarantined
      "wall_seconds": 1.3,        # wall clock of the attempt
      "peak_rss_kb": 51234,       # worker peak RSS (ru_maxrss)
      "counters": {...},          # dotted AtpgResult counters (see
                                  #   DESIGN.md "Counter naming"); the
                                  #   perf and search observatories
                                  #   read these directly
      "lifecycle": {...},         # deterministic per-fault lifecycle
                                  #   core: schema + records per scope
                                  #   (repro.obs.coverage; ok ATPG rows)
      "payload": {...},           # table rows + lint entries (ok only)
      "error": "…"                # traceback summary (failures only)
    }

Each fact is stored once: ``counters`` and ``lifecycle`` hold only
deterministic values, and wall seconds and peak RSS stay in the
designated wall-time columns, keeping rows byte-identical across
``--jobs`` levels modulo :data:`WALL_TIME_FIELDS`.  Rows are also what
the :mod:`repro.service` content-addressed store holds — a cache hit
replays the stored row into the run ledger.

Version history: v6 dropped the derived ``perf``/``search`` cores and
v7 the ``metrics`` column, a labelled-registry dump that repeated
``counters`` (a v5 or v6 row loads with those fields discarded); rows
older than v5 are rejected.

A run killed mid-write leaves a torn final line; :func:`load_records`
tolerates any undecodable line (counting it) so a resumed run can pick
up from the last durable record.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import threading
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..lint.gate import _SUMMARY_DETAIL_LIMIT, LintLedger
from ..lint.severity import Severity

LEDGER_NAME = "ledger.jsonl"
RECORD_VERSION = 7
#: Oldest record version still loadable: a v5 row holds every field v7
#: keeps, older rows lack per-fault lifecycle records.
MIN_RECORD_VERSION = 5

#: Ledger fields that vary run-to-run even for identical science
#: (excluded by the serial-vs-parallel equivalence tests).
WALL_TIME_FIELDS = ("wall_seconds", "peak_rss_kb")


@dataclasses.dataclass
class TaskRecord:
    """One task attempt, as persisted in the ledger."""

    key: str
    kind: str
    fingerprint: str
    outcome: str  # ok | crashed | timeout | quarantined
    pair: Optional[str] = None
    engine: Optional[str] = None
    tables: Tuple[str, ...] = ()
    attempt: int = 0
    budget_scale: float = 1.0
    wall_seconds: float = 0.0
    peak_rss_kb: int = 0
    counters: Dict[str, Any] = dataclasses.field(default_factory=dict)
    lifecycle: Dict[str, Any] = dataclasses.field(default_factory=dict)
    payload: Dict[str, Any] = dataclasses.field(default_factory=dict)
    error: str = ""

    def to_json(self) -> str:
        data = dataclasses.asdict(self)
        data["tables"] = list(self.tables)
        data["v"] = RECORD_VERSION
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskRecord":
        data = dict(data)
        version = data.pop("v", RECORD_VERSION)
        if version < MIN_RECORD_VERSION:
            raise ValueError(
                f"ledger record version {version} predates "
                f"MIN_RECORD_VERSION={MIN_RECORD_VERSION}"
            )
        data["tables"] = tuple(data.get("tables") or ())
        # Unknown fields — a v5 row's perf/search cores and a v5/v6
        # row's metrics included — are dropped.
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def new_run_id() -> str:
    """Sortable-by-start-time unique run id."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


def run_directory(runs_dir: str, run_id: str) -> str:
    return os.path.join(runs_dir, run_id)


def ledger_path(runs_dir: str, run_id: str) -> str:
    return os.path.join(run_directory(runs_dir, run_id), LEDGER_NAME)


#: Serializes appends from the parallel pool's threads.
_APPEND_LOCK = threading.Lock()


def append_record(path: str, record: TaskRecord) -> None:
    """Durably append one record (flush + fsync: a SIGKILL immediately
    after return must not lose the row)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with _APPEND_LOCK, open(path, "a", encoding="utf-8") as handle:
        handle.write(record.to_json() + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def order_tail(path: str, start: int, keys: List[str]) -> None:
    """Put the rows appended after byte ``start`` into the order of
    ``keys``; one key's rows keep their attempt order.

    The parallel pool appends rows as cells finish.  Reordering them
    makes its ledger equal, line for line, to a serial run's, and so to
    a warm replay, which appends cached rows in task-graph order.  The
    rewrite is atomic (tmp file, fsync, ``os.replace``): a reader sees
    the old file or the new one, each holding every row.
    """
    with open(path, "rb") as handle:
        head = handle.read(start)
        lines = handle.read().splitlines(keepends=True)
    rank = {key: index for index, key in enumerate(keys)}
    ordered = sorted(lines, key=lambda line: rank[json.loads(line)["key"]])
    if ordered == lines:
        return
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(head + b"".join(ordered))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def terminate_torn_tail(path: str) -> None:
    """Append a newline if the ledger's final line is unterminated.

    A run killed mid-append leaves a partial last line with no trailing
    newline; appending to it directly would glue the next record onto
    the torn line and corrupt *both*.  Called once before resuming.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return
    with open(path, "rb+") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")


def load_records(path: str) -> Tuple[List[TaskRecord], int]:
    """Read every decodable record; returns ``(records, torn_lines)``.

    A line that fails to parse (torn tail of a killed run, stray
    garbage) is skipped and counted instead of raising — resume must
    survive exactly that state.
    """
    records: List[TaskRecord] = []
    torn = 0
    if not os.path.exists(path):
        return records, torn
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                records.append(TaskRecord.from_dict(data))
            except (ValueError, TypeError):
                torn += 1
    return records, torn


def completed_by_key(
    records: Iterable[TaskRecord], fingerprint: Optional[str] = None
) -> Dict[str, TaskRecord]:
    """Latest successful record per task key (optionally fingerprint-
    filtered); these are the cells a resumed run skips."""
    completed: Dict[str, TaskRecord] = {}
    for record in records:
        if record.outcome != "ok":
            continue
        if fingerprint is not None and record.fingerprint != fingerprint:
            continue
        completed[record.key] = record
    return completed


def quarantined_keys(records: Iterable[TaskRecord]) -> List[str]:
    seen: List[str] = []
    for record in records:
        if record.outcome == "quarantined" and record.key not in seen:
            seen.append(record.key)
    return seen


def peak_rss_kb() -> int:
    """This process's peak resident set size (ru_maxrss is KiB on
    Linux, bytes on macOS — the ledger stores the raw value)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ---------------------------------------------------------------------------
# Lint-ledger transport: workers serialize their process-local
# GLOBAL_LEDGER into the task payload; the parent merges the per-task
# groups (in canonical task order, replace-on-repeated-stage, exactly
# like LintLedger.record) and renders the same summary text the serial
# harness used to produce.


def serialize_lint_ledger(ledger: LintLedger) -> List[Dict[str, Any]]:
    entries = []
    for entry in ledger.entries:
        report = entry.report
        worst = report.worst()
        entries.append(
            {
                "stage": entry.stage,
                "findings": len(report),
                "counts": report.counts(),
                "worst": str(worst) if worst is not None else None,
                "flagged": [
                    str(diag)
                    for diag in report.at_or_above(Severity.WARNING)
                ],
            }
        )
    return entries


def merge_lint_entries(
    groups: Iterable[List[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """Concatenate per-task entry groups with LintLedger's replace-on-
    repeated-stage semantics (first occurrence keeps its position)."""
    merged: List[Dict[str, Any]] = []
    position: Dict[str, int] = {}
    for group in groups:
        for entry in group:
            stage = entry["stage"]
            if stage in position:
                merged[position[stage]] = entry
            else:
                position[stage] = len(merged)
                merged.append(entry)
    return merged


def render_lint_summary(
    entries: List[Dict[str, Any]],
    title: str = "Static analysis (DRC) gate",
) -> str:
    """Byte-compatible with :meth:`LintLedger.render_summary`."""
    if not entries:
        return f"{title}: no circuits gated"
    totals = {str(s): 0 for s in Severity}
    for entry in entries:
        for severity, count in entry["counts"].items():
            totals[severity] += count
    lines = [
        f"{title}: {len(entries)} circuit(s) analyzed — "
        + ", ".join(
            f"{totals[str(s)]} {s}(s)" for s in reversed(list(Severity))
        )
    ]
    for entry in entries:
        line = f"  {entry['stage']}: {entry['findings']} finding(s)"
        if entry["worst"]:
            line += f", worst={entry['worst']}"
        lines.append(line)
        flagged = entry["flagged"]
        for diag in flagged[:_SUMMARY_DETAIL_LIMIT]:
            lines.append(f"    {diag}")
        if len(flagged) > _SUMMARY_DETAIL_LIMIT:
            lines.append(
                f"    ... {len(flagged) - _SUMMARY_DETAIL_LIMIT} more"
            )
    return "\n".join(lines)
