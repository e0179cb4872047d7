"""Trace exporters: JSONL dump, canonical form, phase rollup.

``trace.jsonl`` holds one span record per line, in canonical task
order then span start order.  Two field classes coexist:

* **fingerprinted** — ``seq``, ``parent``, ``name``, ``path``,
  ``attrs``, ``t0``/``t1`` (virtual seconds), ``task``: pure functions
  of the computation, byte-identical across ``--jobs`` levels;
* **wall metadata** — every key starting with ``wall``: machine- and
  scheduling-dependent, stripped by :func:`canonical_lines` before any
  equivalence comparison.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

TRACE_NAME = "trace.jsonl"

#: Rows of the hottest-span-paths table that ``run --profile`` prints
#: after its report and ``report`` prints for a traced run.
ROLLUP_ROWS = 15

#: Prefix marking non-fingerprinted (machine-dependent) span fields.
WALL_PREFIX = "wall"


def span_to_line(record: Dict[str, Any]) -> str:
    """One span as a compact, key-sorted JSON line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_trace_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """Write span records as JSONL; returns the number of lines."""
    count = 0
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(span_to_line(record) + "\n")
            count += 1
    return count


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def strip_wall_fields(record: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: value
        for key, value in record.items()
        if not key.startswith(WALL_PREFIX)
    }


def canonical_lines(records: Iterable[Dict[str, Any]]) -> List[str]:
    """The determinism fingerprint of a span stream: key-sorted JSON of
    every record with the wall-metadata fields removed.  Equal configs
    must produce byte-equal canonical lines at any ``--jobs`` level."""
    return [span_to_line(strip_wall_fields(r)) for r in records]


# ---------------------------------------------------------------------------
# Flame-style per-phase rollup.


def rollup_by_path(
    records: Iterable[Dict[str, Any]]
) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by tree path (``task/atpg.fault/atpg.justify``).

    Returns path -> {count, virtual_s, self_virtual_s, wall_ms,
    self_wall_ms}; *self* durations subtract the time attributed to
    child paths, flame-graph style.  Spans without virtual timestamps
    contribute zero virtual seconds.
    """
    totals: Dict[str, Dict[str, float]] = {}
    children_virtual: Dict[str, float] = {}
    children_wall: Dict[str, float] = {}
    for record in records:
        path = record.get("path", record.get("name", "?"))
        entry = totals.setdefault(
            path,
            {
                "count": 0,
                "virtual_s": 0.0,
                "self_virtual_s": 0.0,
                "wall_ms": 0.0,
                "self_wall_ms": 0.0,
            },
        )
        entry["count"] += 1
        virtual = 0.0
        if record.get("t0") is not None and record.get("t1") is not None:
            virtual = float(record["t1"]) - float(record["t0"])
        wall = float(record.get("wall_ms") or 0.0)
        entry["virtual_s"] += virtual
        entry["wall_ms"] += wall
        if "/" in path:
            parent_path = path.rsplit("/", 1)[0]
            children_virtual[parent_path] = (
                children_virtual.get(parent_path, 0.0) + virtual
            )
            children_wall[parent_path] = (
                children_wall.get(parent_path, 0.0) + wall
            )
    for path, entry in totals.items():
        entry["self_virtual_s"] = max(
            0.0, entry["virtual_s"] - children_virtual.get(path, 0.0)
        )
        entry["self_wall_ms"] = max(
            0.0, entry["wall_ms"] - children_wall.get(path, 0.0)
        )
    return totals


def render_rollup(
    records: Iterable[Dict[str, Any]],
    top: Optional[int] = None,
    title: str = "Per-phase rollup (hottest spans by wall time)",
) -> str:
    """The ``--profile`` flame-style table: one row per span path,
    hottest first (wall time, with virtual seconds alongside)."""
    totals = rollup_by_path(records)
    ranked = sorted(
        totals.items(),
        key=lambda item: (-item[1]["wall_ms"], item[0]),
    )
    if top is not None:
        ranked = ranked[:top]
    if not ranked:
        return f"{title}: no spans recorded"
    width = max(len(path) for path, _ in ranked)
    lines = [
        title,
        f"  {'span path'.ljust(width)}  {'count':>7}  {'wall ms':>10}  "
        f"{'self ms':>10}  {'virt s':>9}",
    ]
    for path, entry in ranked:
        lines.append(
            f"  {path.ljust(width)}  {int(entry['count']):>7}  "
            f"{entry['wall_ms']:>10.1f}  {entry['self_wall_ms']:>10.1f}  "
            f"{entry['virtual_s']:>9.4f}"
        )
    return "\n".join(lines)
