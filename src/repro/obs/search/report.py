"""Effort-waste aggregation and rendering for the search observatory.

Consumes run-ledger rows (plain JSON dicts, like :mod:`repro.obs.perf`
— this module never imports the harness) and produces:

* per-cell/per-scope :class:`WasteRow` aggregates — examined events,
  invalid fraction, invalid dwell per backtrack — joined with the
  density of encoding recovered from the same ledger's Table 6 rows;
* text renderings: the waste-attribution table the combined harness
  report embeds, and the fuller waste section of
  ``python -m repro report`` (original→retimed waste deltas
  plus the waste↔density rank correlation, the paper's §5 claim as a
  single number).

Everything here derives from deterministic WorkClock-ordered counters,
so every rendering is byte-identical between ``--jobs 1`` and
``--jobs 4`` runs of the same config.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ...analysis.correlation import spearman
from ...errors import AnalysisError

#: Metric-name prefix that marks a counter as the observatory's.
SEARCH_PREFIX = "search."


def search_counter_block(counters: Mapping[str, Any]) -> Dict[str, Any]:
    """The ``search.*`` subset of one (flat, dotted) counter mapping."""
    return {
        key: counters[key]
        for key in sorted(counters)
        if key.startswith(SEARCH_PREFIX)
    }


def waste_fraction(counters: Mapping[str, Any]) -> Optional[float]:
    """Invalid fraction of classified examine events (None = no data)."""
    valid = counters.get("search.valid_events", 0)
    invalid = counters.get("search.invalid_events", 0)
    classified = valid + invalid
    if not classified:
        return None
    return invalid / classified


@dataclasses.dataclass
class WasteRow:
    """One (cell × scope) line of the waste-attribution table."""

    cell: str  # ledger task key, e.g. "hitec:dk16.ji.sd"
    scope: str  # "original" | "retimed" | "" for unscoped cells
    circuit: str  # circuit name as the tables spell it (".re" suffix)
    engine: Optional[str]
    examined: int = 0
    valid_events: int = 0
    invalid_events: int = 0
    unique_invalid: int = 0
    partial_states: int = 0
    learned_prunes: int = 0
    unclassified: int = 0
    backtracks: int = 0
    density: Optional[float] = None

    @property
    def waste(self) -> Optional[float]:
        classified = self.valid_events + self.invalid_events
        if not classified:
            return None
        return self.invalid_events / classified

    @property
    def dwell_per_backtrack(self) -> Optional[float]:
        """Invalid examine events per backtrack (search dwell in the
        invalid state space, normalized by backtracking effort)."""
        if not self.backtracks:
            return None
        return self.invalid_events / self.backtracks


def _scope_circuit(pair: Optional[str], scope: str) -> str:
    if pair is None:
        return scope or "?"
    return f"{pair}.re" if scope == "retimed" else pair


def _row_from_block(
    key: str,
    engine: Optional[str],
    pair: Optional[str],
    scope: str,
    block: Mapping[str, Any],
) -> WasteRow:
    return WasteRow(
        cell=key,
        scope=scope,
        circuit=_scope_circuit(pair, scope),
        engine=engine,
        examined=int(block.get("search.states_examined", 0)),
        valid_events=int(block.get("search.valid_events", 0)),
        invalid_events=int(block.get("search.invalid_events", 0)),
        unique_invalid=int(block.get("search.unique_invalid", 0)),
        partial_states=int(block.get("search.partial_states", 0)),
        learned_prunes=int(block.get("search.learned_prunes", 0)),
        unclassified=int(block.get("search.unclassified", 0)),
        backtracks=int(block.get("atpg.backtracks", 0)),
    )


def density_map_from_rows(
    rows: Iterable[Mapping[str, Any]]
) -> Dict[str, float]:
    """circuit name → density of encoding, from the ledger's own
    Table 6 payload rows (plus Figure 3 curves when present)."""
    densities: Dict[str, float] = {}
    for row in rows:
        payload = row.get("payload") or {}
        for table_row in (payload.get("tables") or {}).get("table6", ()):
            name = table_row.get("circuit")
            density = table_row.get("density")
            if name and density is not None:
                densities[name] = float(density)
        for curve in payload.get("curves", ()):
            name = curve.get("circuit_name")
            density = curve.get("density_of_encoding")
            if name and density is not None:
                densities.setdefault(name, float(density))
    return densities


def waste_rows_from_ledger_rows(
    rows: Iterable[Mapping[str, Any]]
) -> List[WasteRow]:
    """One WasteRow per (completed cell × scope) with search counters.

    Latest ok row per task key wins (``completed_by_key`` semantics);
    output order is sorted by task key then scope — deterministic
    regardless of ledger append order.
    """
    completed: Dict[str, Mapping[str, Any]] = {}
    materialized = list(rows)
    for row in materialized:
        if row.get("outcome") == "ok":
            completed[str(row.get("key"))] = row
    densities = density_map_from_rows(completed.values())
    out: List[WasteRow] = []
    for key in sorted(completed):
        row = completed[key]
        counters = row.get("counters") or {}
        engine = row.get("engine")
        pair = row.get("pair")
        scoped = {
            scope: value
            for scope, value in counters.items()
            if isinstance(value, dict)
        }
        if scoped:
            for scope in sorted(scoped):
                block = scoped[scope]
                if not search_counter_block(block):
                    continue
                waste_row = _row_from_block(key, engine, pair, scope, block)
                waste_row.density = densities.get(waste_row.circuit)
                out.append(waste_row)
        elif search_counter_block(counters):
            waste_row = _row_from_block(key, engine, pair, "", counters)
            waste_row.density = densities.get(waste_row.circuit)
            out.append(waste_row)
    return out


# ---------------------------------------------------------------------------
# Rendering.  Fixed-precision formatting only: these strings are part of
# the jobs-invariance surface.


def _frac(value: Optional[float]) -> str:
    return f"{value:.4f}" if value is not None else "-"


def _dens(value: Optional[float]) -> str:
    return f"{value:.3e}" if value is not None else "-"


def render_waste_attribution(
    rows: Iterable[WasteRow],
    title: str = "Search waste attribution (invalid examined states)",
) -> str:
    """The per-cell waste table (embedded in the combined report)."""
    rows = list(rows)
    if not rows:
        return f"{title}: no cells with search counters"
    width = max(
        max(len(f"{r.cell} {r.scope}".rstrip()) for r in rows), len("cell")
    )
    lines = [
        title,
        f"  {'cell'.ljust(width)}  {'examined':>9} {'invalid':>8} "
        f"{'waste':>7} {'dwell/bt':>9} {'partial':>8} {'density':>10}",
    ]
    for row in rows:
        label = f"{row.cell} {row.scope}".rstrip()
        lines.append(
            f"  {label.ljust(width)}  {row.examined:>9} "
            f"{row.invalid_events:>8} {_frac(row.waste):>7} "
            f"{_frac(row.dwell_per_backtrack):>9} "
            f"{row.partial_states:>8} {_dens(row.density):>10}"
        )
    return "\n".join(lines)


def pair_deltas(rows: Iterable[WasteRow]) -> List[Tuple[WasteRow, WasteRow]]:
    """(original, retimed) row pairs per cell, where both sides have a
    defined waste fraction."""
    by_cell: Dict[str, Dict[str, WasteRow]] = {}
    for row in rows:
        by_cell.setdefault(row.cell, {})[row.scope] = row
    pairs: List[Tuple[WasteRow, WasteRow]] = []
    for cell in sorted(by_cell):
        sides = by_cell[cell]
        original = sides.get("original")
        retimed = sides.get("retimed")
        if original is None or retimed is None:
            continue
        if original.waste is None or retimed.waste is None:
            continue
        pairs.append((original, retimed))
    return pairs


def render_pair_deltas(rows: Iterable[WasteRow]) -> str:
    """Original→retimed waste movement, one line per engine × pair."""
    pairs = pair_deltas(rows)
    if not pairs:
        return (
            "Waste movement under retiming: no cells with both sides "
            "classified"
        )
    lines = ["Waste movement under retiming (waste fraction, orig -> re)"]
    for original, retimed in pairs:
        delta = retimed.waste - original.waste
        verdict = "rises" if delta > 0 else ("flat" if delta == 0 else "FALLS")
        lines.append(
            f"  {original.cell}: {_frac(original.waste)} -> "
            f"{_frac(retimed.waste)} ({delta:+.4f}, {verdict})"
        )
    return "\n".join(lines)


def waste_density_correlation(
    rows: Iterable[WasteRow],
) -> Optional[Tuple[float, int]]:
    """Spearman rank correlation of (density, waste) across all sides
    with both numbers defined; None when under two points."""
    points = [
        (row.density, row.waste)
        for row in rows
        if row.density is not None and row.waste is not None
    ]
    if len(points) < 2:
        return None
    try:
        rho = spearman(
            [d for d, _ in points], [w for _, w in points]
        )
    except AnalysisError:
        return None
    return rho, len(points)


def render_correlation(rows: Iterable[WasteRow]) -> str:
    result = waste_density_correlation(list(rows))
    if result is None:
        return (
            "Waste vs density of encoding: not enough classified sides "
            "to correlate"
        )
    rho, count = result
    return (
        f"Waste vs density of encoding: Spearman rho = {rho:+.3f} over "
        f"{count} circuit side(s) (paper section 5 predicts strongly "
        "negative: sparser encodings waste more search)"
    )


def render_report(
    rows: Iterable[WasteRow],
    title: str = "Search-state observatory report",
) -> str:
    """The full CLI report: waste table + pair movement + correlation."""
    rows = list(rows)
    sections = [
        title,
        render_waste_attribution(rows),
        render_pair_deltas(rows),
        render_correlation(rows),
    ]
    return "\n\n".join(sections)
