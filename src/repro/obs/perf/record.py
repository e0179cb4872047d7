"""PerfRecord schema: one performance observation per measured unit.

A :class:`PerfRecord` snapshots what one benchmark or one harness cell
(circuit pair × engine) cost.  Two field classes coexist, mirroring the
trace exporter's split (:mod:`repro.obs.export`):

* **deterministic counters** — the dotted ``AtpgResult.counters()``
  keys (``atpg.backtracks``, ``atpg.frames_expanded``, ``sim.events``,
  virtual ``atpg.cpu_seconds`` under the WorkClock), flattened with a
  ``/`` scope separator (``original/atpg.backtracks``).  For a config
  on the deterministic virtual clock these are pure functions of the
  computation: byte-identical at any ``--jobs`` level, on any machine,
  so the diff engine compares them *exactly* and any delta is
  attributable to a code change.
* **wall metadata** — ``wall_seconds`` and ``peak_rss_kb``: machine-
  and load-dependent, compared only against tolerance bands and never
  gated on in CI.

A :class:`PerfSnapshot` bundles the records of one measurement run
with environment provenance (git SHA, python version, effort preset,
jobs) and is the unit the baseline store persists.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Version of the PerfRecord/PerfSnapshot schema (bump on field changes).
PERF_SCHEMA_VERSION = 1

#: Scope separator used when flattening nested counter dicts; distinct
#: from the ``.`` inside dotted metric names, so the metric part of a
#: flattened key is unambiguously everything after the last ``/``.
SCOPE_SEP = "/"

#: Record kinds.
KIND_HARNESS_CELL = "harness_cell"  # one (pair × engine) runner cell
KIND_BENCH = "bench"  # one pytest-benchmark target (wall-only)


def flatten_counters(
    counters: Dict[str, Any], prefix: str = ""
) -> Dict[str, float]:
    """Flatten nested counter dicts to ``scope/.../metric.name`` keys.

    The engine-pair cells store ``{"original": {...}, "retimed":
    {...}}``; flattening gives a single exact-comparable mapping while
    keeping the metric name recoverable (`metric_name`).
    """
    flat: Dict[str, float] = {}
    for key in sorted(counters):
        value = counters[key]
        name = f"{prefix}{SCOPE_SEP}{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_counters(value, prefix=name))
        else:
            flat[name] = value
    return flat


def metric_name(flat_key: str) -> str:
    """The dotted metric name of a flattened counter key."""
    return flat_key.rsplit(SCOPE_SEP, 1)[-1]


@dataclasses.dataclass
class PerfRecord:
    """One measured unit: a harness cell or a benchmark target."""

    key: str  # task key ("hitec:dk16.ji.sd") or bench fullname
    kind: str = KIND_HARNESS_CELL
    engine: Optional[str] = None
    pair: Optional[str] = None
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    wall_seconds: float = 0.0
    peak_rss_kb: int = 0
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


# ---------------------------------------------------------------------------
# Environment provenance.


def _git_sha(cwd: Optional[str] = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def collect_environment(
    preset: Optional[str] = None,
    jobs: Optional[int] = None,
    fingerprint: Optional[str] = None,
    repo_root: Optional[str] = None,
) -> Dict[str, Any]:
    """Provenance stamped onto every snapshot.

    Everything here is metadata: the diff engine reports environment
    mismatches but never gates on them (except the config fingerprint,
    which makes two snapshots scientifically incomparable).
    """
    return {
        "git_sha": _git_sha(repo_root),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "preset": preset,
        "jobs": jobs,
        "fingerprint": fingerprint,
    }


# ---------------------------------------------------------------------------
# PerfSnapshot: the persisted unit (baseline files, BENCH_<n>.json).


@dataclasses.dataclass
class PerfSnapshot:
    """All PerfRecords of one measurement run plus provenance."""

    environment: Dict[str, Any] = dataclasses.field(default_factory=dict)
    records: List[PerfRecord] = dataclasses.field(default_factory=list)

    def by_key(self) -> Dict[str, PerfRecord]:
        return {record.key: record for record in self.records}

    def sorted(self) -> "PerfSnapshot":
        return PerfSnapshot(
            environment=self.environment,
            records=sorted(self.records, key=lambda r: r.key),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "perf_schema": PERF_SCHEMA_VERSION,
            "environment": dict(self.environment),
            "records": [r.to_dict() for r in self.sorted().records],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfSnapshot":
        return cls(
            environment=dict(data.get("environment") or {}),
            records=[
                PerfRecord.from_dict(entry)
                for entry in data.get("records") or ()
            ],
        )


def write_snapshot(path: str, snapshot: PerfSnapshot) -> str:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_snapshot(path: str) -> PerfSnapshot:
    with open(path, "r", encoding="utf-8") as handle:
        return PerfSnapshot.from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# Ledger ingestion.  Rows are consumed as plain JSON dicts so this
# module never imports repro.harness (the harness report imports *us*).


def load_ledger_rows(path: str) -> List[Dict[str, Any]]:
    """Tolerant JSONL read of a run ledger, same semantics as
    :func:`repro.harness.ledger.load_records`: torn lines and lines
    that parse to a JSON value other than an object are skipped."""
    rows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict):
                rows.append(row)
    return rows


def record_from_ledger_row(row: Dict[str, Any]) -> PerfRecord:
    """Assemble the full PerfRecord of one successful ledger row: its
    flattened counters plus the row's wall/RSS metadata."""
    return PerfRecord(
        key=row["key"],
        kind=KIND_HARNESS_CELL,
        engine=row.get("engine"),
        pair=row.get("pair"),
        counters=flatten_counters(row.get("counters") or {}),
        wall_seconds=float(row.get("wall_seconds") or 0.0),
        peak_rss_kb=int(row.get("peak_rss_kb") or 0),
        attrs={
            "kind": row.get("kind"),
            "attempt": row.get("attempt", 0),
            "budget_scale": row.get("budget_scale", 1.0),
        },
    )


def snapshot_from_ledger(
    path: str,
    environment: Optional[Dict[str, Any]] = None,
    fingerprint: Optional[str] = None,
) -> PerfSnapshot:
    """One PerfRecord per completed cell of a run ledger.

    Mirrors ``completed_by_key``: the latest successful row per task
    key wins (optionally fingerprint-filtered).
    """
    completed: Dict[str, Dict[str, Any]] = {}
    for row in load_ledger_rows(path):
        if row.get("outcome") != "ok":
            continue
        if (
            fingerprint is not None
            and row.get("fingerprint") != fingerprint
        ):
            continue
        completed[row["key"]] = row
    records = [
        record_from_ledger_row(row)
        for _, row in sorted(completed.items())
    ]
    return PerfSnapshot(
        environment=dict(environment or {}), records=records
    )


# ---------------------------------------------------------------------------
# pytest-benchmark ingestion: bench runs and harness runs share the
# PerfRecord format (bench records carry wall statistics only; they
# have no deterministic counters and are never gated on).


def records_from_pytest_benchmark(
    data: Dict[str, Any]
) -> List[PerfRecord]:
    """Convert a pytest-benchmark JSON payload into bench PerfRecords."""
    records: List[PerfRecord] = []
    for bench in data.get("benchmarks") or ():
        stats = bench.get("stats") or {}
        records.append(
            PerfRecord(
                key=bench.get("fullname") or bench.get("name") or "?",
                kind=KIND_BENCH,
                wall_seconds=float(stats.get("mean") or 0.0),
                attrs={
                    "group": bench.get("group"),
                    "rounds": stats.get("rounds"),
                    "min": stats.get("min"),
                    "max": stats.get("max"),
                    "stddev": stats.get("stddev"),
                },
            )
        )
    return sorted(records, key=lambda r: r.key)
