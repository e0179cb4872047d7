"""Read-time aggregation for the fault-lifecycle observatory.

Consumes run-ledger rows (plain JSON dicts, like :mod:`repro.obs.perf`
and :mod:`repro.obs.search` — this module never imports the harness)
and produces:

* the deterministic ``lifecycle`` core embedded in every ok ledger row
  (:func:`lifecycle_core`) and the ``lifecycle.*`` counter block the
  engines merge into their run counters
  (:func:`lifecycle_counter_block`);
* per-cell/per-scope :class:`CellRecords` plus the
  coverage-vs-cumulative-effort :class:`CoverageCurve` derived from
  each (and an aggregated curve over every cell), with
  effort-to-reach-{50,75,90,95}% marks in deterministic WorkClock
  seconds;
* the cross-engine/cross-budget hard-fault ranking — repeat aborters
  first, then high-effort detections;
* text renderings: the compact abort-forensics block the combined
  harness report embeds, and the fuller lifecycle section of
  ``python -m repro report``.

Everything derives from WorkClock-ordered per-fault records, so every
rendering is byte-identical between
``--jobs 1`` and ``--jobs 4`` runs (and cold vs warm cache runs) of
the same config.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .taxonomy import ABORT_REASONS, INCIDENTAL_PROVENANCES, PROV_TARGETED

#: Version of the ledger-embedded ``lifecycle`` payload.
COVERAGE_SCHEMA_VERSION = 1

#: Coverage fractions (percent of final detections) the curves mark.
MARK_PERCENTS = (50, 75, 90, 95)


# ---------------------------------------------------------------------------
# Write-time cores: what the engines and the harness embed.


def lifecycle_counter_block(
    records: Iterable[Mapping[str, Any]]
) -> Dict[str, int]:
    """The fixed ``lifecycle.*`` counter set of one run's records.

    Empty-records runs yield an empty dict (non-ATPG cells and engines
    predating the observatory emit no lifecycle counters at all), so
    the perf gate sees the full counter set exactly when records exist.
    """
    records = list(records)
    if not records:
        return {}
    block = {
        "lifecycle.faults_targeted": 0,
        "lifecycle.detected_targeted": 0,
        "lifecycle.detected_incidental": 0,
    }
    for reason in ABORT_REASONS:
        block["lifecycle.aborted_" + reason.replace("-", "_")] = 0
    for record in records:
        outcome = record.get("outcome")
        provenance = record.get("provenance")
        if provenance == PROV_TARGETED:
            block["lifecycle.faults_targeted"] += 1
        if outcome == "detected":
            if provenance in INCIDENTAL_PROVENANCES:
                block["lifecycle.detected_incidental"] += 1
            else:
                block["lifecycle.detected_targeted"] += 1
        elif outcome == "aborted":
            key = "lifecycle.aborted_" + str(
                record.get("abort_reason")
            ).replace("-", "_")
            if key in block:
                block[key] += 1
    return block


def lifecycle_core(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The deterministic ``lifecycle`` payload of one ok ledger row.

    ``payload`` is the ``{"original": [records], "retimed": [records]}``
    shape of engine-pair cells; scopes without records are omitted, and
    a cell with none at all yields an empty dict (non-ATPG cells).
    """
    faults = {
        scope: list(payload[scope])
        for scope in sorted(payload)
        if payload[scope]
    }
    if not faults:
        return {}
    return {"schema": COVERAGE_SCHEMA_VERSION, "faults": faults}


# ---------------------------------------------------------------------------
# Read-time rows.


@dataclasses.dataclass
class CellRecords:
    """One (cell × scope)'s lifecycle records, in resolution order."""

    cell: str  # ledger task key, e.g. "hitec:dk16.ji.sd"
    scope: str  # "original" | "retimed"
    circuit: str  # circuit name as the tables spell it (".re" suffix)
    engine: Optional[str]
    records: List[Dict[str, Any]]


def _scope_circuit(pair: Optional[str], scope: str) -> str:
    if pair is None:
        return scope or "?"
    return f"{pair}.re" if scope == "retimed" else pair


def cell_records_from_ledger_rows(
    rows: Iterable[Mapping[str, Any]]
) -> List[CellRecords]:
    """One CellRecords per (completed cell × scope) with lifecycle
    records.  Latest ok row per task key wins (``completed_by_key``
    semantics); output order is sorted by task key then scope."""
    completed: Dict[str, Mapping[str, Any]] = {}
    for row in rows:
        if row.get("outcome") == "ok":
            completed[str(row.get("key"))] = row
    out: List[CellRecords] = []
    for key in sorted(completed):
        row = completed[key]
        faults = (row.get("lifecycle") or {}).get("faults") or {}
        for scope in sorted(faults):
            records = list(faults[scope])
            if not records:
                continue
            out.append(
                CellRecords(
                    cell=key,
                    scope=scope,
                    circuit=_scope_circuit(row.get("pair"), scope),
                    engine=row.get("engine"),
                    records=records,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Coverage-vs-effort curves.


@dataclasses.dataclass
class CoverageCurve:
    """Detections as a function of cumulative deterministic effort."""

    label: str  # "cell scope", or "all cells" for the aggregate
    total: int  # resolved faults (records)
    detected: int
    targeted: int  # detected by the fault's own deterministic search
    incidental: int  # detected by another fault's / a phase's sequence
    redundant: int
    aborted: int
    #: (virtual seconds, cumulative detections) — one point per record
    #: that advanced the detection count.
    points: List[Tuple[float, int]]
    #: percent → virtual seconds at which cumulative detections first
    #: reached that fraction of the final count (None when undetectable).
    marks: Dict[int, Optional[float]]


def _curve_from_records(
    label: str, records: Iterable[Mapping[str, Any]]
) -> CoverageCurve:
    detected = targeted = incidental = redundant = aborted = 0
    points: List[Tuple[float, int]] = []
    count = 0
    for record in records:
        count += 1
        outcome = record.get("outcome")
        if outcome == "detected":
            detected += 1
            if record.get("provenance") in INCIDENTAL_PROVENANCES:
                incidental += 1
            else:
                targeted += 1
            points.append(
                (float(record.get("cpu_seconds", 0.0)), detected)
            )
        elif outcome == "redundant":
            redundant += 1
        elif outcome == "aborted":
            aborted += 1
    marks: Dict[int, Optional[float]] = {}
    for percent in MARK_PERCENTS:
        need = math.ceil(detected * percent / 100)
        mark: Optional[float] = None
        if need:
            for seconds, cumulative in points:
                if cumulative >= need:
                    mark = seconds
                    break
        marks[percent] = mark
    return CoverageCurve(
        label=label,
        total=count,
        detected=detected,
        targeted=targeted,
        incidental=incidental,
        redundant=redundant,
        aborted=aborted,
        points=points,
        marks=marks,
    )


def coverage_curves(cells: Iterable[CellRecords]) -> List[CoverageCurve]:
    """One curve per cell × scope plus one aggregated curve over all.

    The aggregate merges every record, ordered by (virtual seconds,
    cell, fault) — a deterministic interleaving of the per-cell
    WorkClock timelines.
    """
    cells = list(cells)
    curves = [
        _curve_from_records(
            f"{cell.cell} {cell.scope}".rstrip(), cell.records
        )
        for cell in cells
    ]
    if len(cells) > 1:
        merged = sorted(
            (
                (
                    float(record.get("cpu_seconds", 0.0)),
                    cell.cell,
                    str(record.get("fault")),
                    record,
                )
                for cell in cells
                for record in cell.records
            ),
            key=lambda item: item[:3],
        )
        curves.append(
            _curve_from_records(
                "all cells", [item[3] for item in merged]
            )
        )
    return curves


# ---------------------------------------------------------------------------
# Hard-fault ranking.


@dataclasses.dataclass
class HardFault:
    """One (circuit, fault)'s difficulty profile across cells."""

    circuit: str
    fault: str
    aborts: int = 0
    abort_reasons: Dict[str, int] = dataclasses.field(default_factory=dict)
    detections: int = 0
    backtracks: int = 0
    frames: int = 0
    sim_events: int = 0
    cells: List[str] = dataclasses.field(default_factory=list)


def rank_hard_faults(cells: Iterable[CellRecords]) -> List[HardFault]:
    """Faults that aborted anywhere or cost deterministic search
    effort, hardest first (ties broken by circuit then fault name)."""
    profiles: Dict[Tuple[str, str], HardFault] = {}
    for cell in cells:
        for record in cell.records:
            key = (cell.circuit, str(record.get("fault")))
            profile = profiles.get(key)
            if profile is None:
                profile = profiles[key] = HardFault(
                    circuit=key[0], fault=key[1]
                )
            if cell.cell not in profile.cells:
                profile.cells.append(cell.cell)
            outcome = record.get("outcome")
            if outcome == "aborted":
                profile.aborts += 1
                reason = str(record.get("abort_reason"))
                profile.abort_reasons[reason] = (
                    profile.abort_reasons.get(reason, 0) + 1
                )
            elif outcome == "detected":
                profile.detections += 1
            profile.backtracks += int(record.get("backtracks", 0))
            profile.frames += int(record.get("frames", 0))
            profile.sim_events += int(record.get("sim_events", 0))
    ranked = [
        profile
        for profile in profiles.values()
        if profile.aborts or profile.backtracks
    ]
    ranked.sort(key=lambda p: (-p.aborts, -p.backtracks, -p.frames,
                               -p.sim_events, p.circuit, p.fault))
    return ranked


# ---------------------------------------------------------------------------
# Rendering.  Fixed-precision formatting only: these strings are part of
# the jobs-invariance surface.


def _secs(value: Optional[float]) -> str:
    return f"{value:.3f}" if value is not None else "-"


def render_coverage_curves(
    curves: Iterable[CoverageCurve],
    title: str = "Coverage vs cumulative effort (virtual seconds to "
    "reach % of final detections)",
) -> str:
    curves = list(curves)
    if not curves:
        return f"{title}: no cells with lifecycle records"
    width = max(max(len(c.label) for c in curves), len("cell"))
    lines = [
        title,
        f"  {'cell'.ljust(width)}  {'faults':>6} {'det':>5} {'targ':>5} "
        f"{'incid':>5} {'abort':>5}  {'t50%':>8} {'t75%':>8} "
        f"{'t90%':>8} {'t95%':>8}",
    ]
    for curve in curves:
        lines.append(
            f"  {curve.label.ljust(width)}  {curve.total:>6} "
            f"{curve.detected:>5} {curve.targeted:>5} "
            f"{curve.incidental:>5} {curve.aborted:>5}  "
            f"{_secs(curve.marks[50]):>8} {_secs(curve.marks[75]):>8} "
            f"{_secs(curve.marks[90]):>8} {_secs(curve.marks[95]):>8}"
        )
    return "\n".join(lines)


def render_hard_faults(
    ranked: Iterable[HardFault],
    limit: int = 15,
    title: str = "Hard-fault ranking (repeat aborters, then "
    "high-effort detections)",
) -> str:
    ranked = list(ranked)
    if not ranked:
        return f"{title}: no aborted or search-effort faults"
    shown = ranked[:limit]
    width = max(
        max(len(f"{p.circuit} {p.fault}") for p in shown), len("fault")
    )
    lines = [
        title,
        f"  {'fault'.ljust(width)}  {'aborts':>6} {'det':>4} "
        f"{'backtr':>7} {'frames':>7}  reasons",
    ]
    for profile in shown:
        reasons = ",".join(
            f"{reason}x{profile.abort_reasons[reason]}"
            for reason in sorted(profile.abort_reasons)
        )
        lines.append(
            f"  {f'{profile.circuit} {profile.fault}'.ljust(width)}  "
            f"{profile.aborts:>6} {profile.detections:>4} "
            f"{profile.backtracks:>7} {profile.frames:>7}  "
            f"{reasons or '-'}"
        )
    if len(ranked) > limit:
        lines.append(f"  ... and {len(ranked) - limit} more")
    return "\n".join(lines)


def render_abort_forensics(
    cells: Iterable[CellRecords],
    title: str = "Coverage & abort forensics",
) -> str:
    """The compact per-cell block the combined harness report embeds:
    detection provenance split plus the abort-reason taxonomy."""
    cells = list(cells)
    if not cells:
        return f"{title}: no cells with lifecycle records"
    labels = [f"{cell.cell} {cell.scope}".rstrip() for cell in cells]
    width = max(max(len(label) for label in labels), len("cell"))
    lines = [
        title,
        f"  {'cell'.ljust(width)}  {'faults':>6} {'targ':>5} "
        f"{'incid':>5}  {'bt-lim':>6} {'fr-lim':>6} {'t-bud':>6} "
        f"{'stall':>6}",
    ]
    for label, cell in zip(labels, cells):
        block = lifecycle_counter_block(cell.records)
        lines.append(
            f"  {label.ljust(width)}  "
            f"{len(cell.records):>6} "
            f"{block.get('lifecycle.detected_targeted', 0):>5} "
            f"{block.get('lifecycle.detected_incidental', 0):>5}  "
            f"{block.get('lifecycle.aborted_backtrack_limit', 0):>6} "
            f"{block.get('lifecycle.aborted_frame_limit', 0):>6} "
            f"{block.get('lifecycle.aborted_time_budget', 0):>6} "
            f"{block.get('lifecycle.aborted_stall', 0):>6}"
        )
    return "\n".join(lines)


def render_report(
    cells: Iterable[CellRecords],
    title: str = "Fault-lifecycle & coverage observatory report",
) -> str:
    """The full CLI report: forensics + curves + hard-fault ranking."""
    cells = list(cells)
    sections = [
        title,
        render_abort_forensics(cells),
        render_coverage_curves(coverage_curves(cells)),
        render_hard_faults(rank_hard_faults(cells)),
    ]
    return "\n\n".join(sections)
