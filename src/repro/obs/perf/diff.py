"""Perf-diff engine: exact counter comparison + tolerance-band wall diff.

Comparing two :class:`~.record.PerfSnapshot` objects produces a
:class:`PerfDiff` holding three delta classes:

* **counter deltas** — deterministic counters compare *exactly*; each
  changed value is classified by the metric's direction policy
  (``atpg.backtracks`` up = regression, ``cover.faults_detected`` down
  = regression, anything without a declared direction = drift).  A
  harness cell present in the baseline but absent from the current
  snapshot is a regression too (a silently dropped cell must force a
  deliberate baseline refresh).
* **wall deltas** — ``wall_seconds`` and ``peak_rss_kb`` compare
  against configurable relative tolerance bands and are advisory by
  default (CI machines are noisy; only deterministic counters gate).
* **rollup deltas** — two span streams (``trace.jsonl``) rolled up by
  path via :func:`repro.obs.export.rollup_by_path` and diffed on their
  deterministic fields (span count, virtual seconds), flame-style.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional

from ..export import rollup_by_path
from .record import (
    KIND_HARNESS_CELL,
    PerfRecord,
    PerfSnapshot,
    metric_name,
)

#: Effort metrics: an *increase* is a perf regression.
HIGHER_IS_WORSE = frozenset(
    {
        "atpg.backtracks",
        "atpg.frames_expanded",
        "atpg.states_examined",
        "atpg.cpu_seconds",
        "atpg.faults_aborted",
        "sim.events",
        # Expansion bookkeeping (post-simulating collapsed-away faults)
        # is cheap but real work; growth means the analyzer is dropping
        # more than the engine covers.
        "sim.expansion_events",
        # Search observatory: more examine events / more provably
        # invalid ones = more search effort burned outside the valid
        # state space.
        "search.states_examined",
        "search.invalid_events",
        "search.unique_invalid",
        # Coverage observatory: more aborts under any taxonomy reason =
        # more faults left unresolved by the same budget.  The
        # lifecycle detection counters deliberately have no direction
        # policy — detections moving between the targeted and
        # incidental buckets (e.g. a different drop order) is drift,
        # not a regression.
        "lifecycle.aborted_backtrack_limit",
        "lifecycle.aborted_frame_limit",
        "lifecycle.aborted_time_budget",
        "lifecycle.aborted_stall",
    }
)

#: Quality metrics: a *decrease* is a regression.  The ``cover.*``
#: block is the full-fault-universe outcome (expanded results); the
#: engine-level ``atpg.faults_detected`` deliberately has *no*
#: direction policy — a better static collapse legitimately shrinks the
#: engine's target list and with it the engine-level detect count.
LOWER_IS_WORSE = frozenset(
    {
        "cover.faults_detected",
        "cover.faults_redundant",
    }
)

REGRESSION = "regression"
IMPROVEMENT = "improvement"
DRIFT = "drift"


def classify_delta(flat_key: str, delta: float) -> str:
    """Direction policy for one changed counter value."""
    name = metric_name(flat_key)
    if name in HIGHER_IS_WORSE:
        return REGRESSION if delta > 0 else IMPROVEMENT
    if name in LOWER_IS_WORSE:
        return REGRESSION if delta < 0 else IMPROVEMENT
    return DRIFT


@dataclasses.dataclass
class CounterDelta:
    """One deterministic counter that changed between snapshots."""

    key: str  # record key (cell / bench id)
    counter: str  # flattened counter key
    baseline: Optional[float]  # None = counter added
    current: Optional[float]  # None = counter removed
    direction: str = DRIFT

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline


@dataclasses.dataclass
class WallDelta:
    """Advisory wall-seconds / peak-RSS comparison for one record."""

    key: str
    field: str  # "wall_seconds" | "peak_rss_kb"
    baseline: float
    current: float
    tolerance: float
    within_band: bool


@dataclasses.dataclass
class PerfDiff:
    """Everything that differs between a baseline and a current run."""

    counter_deltas: List[CounterDelta] = dataclasses.field(
        default_factory=list
    )
    wall_deltas: List[WallDelta] = dataclasses.field(default_factory=list)
    missing: List[PerfRecord] = dataclasses.field(default_factory=list)
    added: List[PerfRecord] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)
    compared: int = 0

    def regressions(self) -> List[CounterDelta]:
        return [
            d for d in self.counter_deltas if d.direction == REGRESSION
        ]

    def missing_cells(self) -> List[PerfRecord]:
        """Dropped harness cells (gated); dropped bench records are
        advisory — bench sweeps are optional per run."""
        return [r for r in self.missing if r.kind == KIND_HARNESS_CELL]

    def gate_failures(self, fail_on: str = REGRESSION) -> List[str]:
        """Human-readable reasons the perf gate should fail (empty =
        pass).  ``fail_on``: ``regression`` (default), ``any-delta``
        (byte-exact counters required), or ``never``."""
        if fail_on == "never":
            return []
        failures = [
            f"{d.key}: {d.counter} "
            + (
                f"{_num(d.baseline)} -> {_num(d.current)} ({d.direction})"
                if d.baseline is not None and d.current is not None
                else ("counter removed" if d.current is None
                      else "counter added")
            )
            for d in (
                self.counter_deltas
                if fail_on == "any-delta"
                else self.regressions()
            )
        ]
        failures.extend(
            f"{record.key}: cell missing from current snapshot"
            for record in self.missing_cells()
        )
        if fail_on == "any-delta":
            failures.extend(
                f"{record.key}: cell added (not in baseline)"
                for record in self.added
                if record.kind == KIND_HARNESS_CELL
            )
        return failures

    def clean(self) -> bool:
        """True when deterministic counters match byte-for-byte."""
        return not (self.counter_deltas or self.missing or self.added)


def _within_band(baseline: float, current: float, tolerance: float) -> bool:
    if baseline <= 0:
        return True  # nothing meaningful to compare against
    ratio = current / baseline
    return (1.0 / (1.0 + tolerance)) <= ratio <= (1.0 + tolerance)


def diff_records(
    baseline: PerfRecord,
    current: PerfRecord,
    wall_tolerance: float = 0.25,
    rss_tolerance: float = 0.50,
) -> PerfDiff:
    """Compare one record pair (same key) exactly + by tolerance band."""
    diff = PerfDiff(compared=1)
    names = sorted(set(baseline.counters) | set(current.counters))
    for name in names:
        b = baseline.counters.get(name)
        c = current.counters.get(name)
        if b == c:
            continue
        direction = DRIFT
        if b is None:
            # A new counter is drift: it cannot regress a baseline value.
            direction = DRIFT
        elif c is None:
            direction = REGRESSION  # silently dropped measurements gate
        else:
            direction = classify_delta(name, c - b)
        diff.counter_deltas.append(
            CounterDelta(
                key=current.key,
                counter=name,
                baseline=b,
                current=c,
                direction=direction,
            )
        )
    for field, tolerance in (
        ("wall_seconds", wall_tolerance),
        ("peak_rss_kb", rss_tolerance),
    ):
        b = float(getattr(baseline, field) or 0.0)
        c = float(getattr(current, field) or 0.0)
        if b == 0.0 and c == 0.0:
            continue
        diff.wall_deltas.append(
            WallDelta(
                key=current.key,
                field=field,
                baseline=b,
                current=c,
                tolerance=tolerance,
                within_band=_within_band(b, c, tolerance),
            )
        )
    return diff


def diff_snapshots(
    baseline: PerfSnapshot,
    current: PerfSnapshot,
    wall_tolerance: float = 0.25,
    rss_tolerance: float = 0.50,
) -> PerfDiff:
    """Full snapshot comparison, keyed by record key."""
    diff = PerfDiff()
    base_by_key = baseline.by_key()
    curr_by_key = current.by_key()
    for key in sorted(set(base_by_key) | set(curr_by_key)):
        if key not in curr_by_key:
            diff.missing.append(base_by_key[key])
            continue
        if key not in base_by_key:
            diff.added.append(curr_by_key[key])
            continue
        one = diff_records(
            base_by_key[key],
            curr_by_key[key],
            wall_tolerance=wall_tolerance,
            rss_tolerance=rss_tolerance,
        )
        diff.counter_deltas.extend(one.counter_deltas)
        diff.wall_deltas.extend(one.wall_deltas)
        diff.compared += 1
    base_fp = (baseline.environment or {}).get("fingerprint")
    curr_fp = (current.environment or {}).get("fingerprint")
    if base_fp and curr_fp and base_fp != curr_fp:
        diff.notes.append(
            f"config fingerprints differ (baseline {base_fp}, current "
            f"{curr_fp}); counter deltas may reflect a config change, "
            "not a code change"
        )
    return diff


# ---------------------------------------------------------------------------
# Flame-rollup diff (per-span-path virtual seconds).


def diff_rollups(
    baseline_spans: Iterable[Dict[str, Any]],
    current_spans: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-path rollup deltas of two span streams, largest first.

    Only deterministic rollup fields diff (span count, virtual
    seconds); wall milliseconds ride along as advisory context.
    """
    base = rollup_by_path(baseline_spans)
    curr = rollup_by_path(current_spans)
    rows: List[Dict[str, Any]] = []
    for path in sorted(set(base) | set(curr)):
        b = base.get(path)
        c = curr.get(path)
        row = {
            "path": path,
            "count_baseline": int(b["count"]) if b else 0,
            "count_current": int(c["count"]) if c else 0,
            "virtual_baseline": b["virtual_s"] if b else 0.0,
            "virtual_current": c["virtual_s"] if c else 0.0,
            "wall_baseline_ms": b["wall_ms"] if b else 0.0,
            "wall_current_ms": c["wall_ms"] if c else 0.0,
        }
        row["virtual_delta"] = (
            row["virtual_current"] - row["virtual_baseline"]
        )
        row["count_delta"] = row["count_current"] - row["count_baseline"]
        if row["virtual_delta"] or row["count_delta"]:
            rows.append(row)
    rows.sort(key=lambda r: (-abs(r["virtual_delta"]), r["path"]))
    return rows


def render_rollup_diff(
    rows: List[Dict[str, Any]],
    top: Optional[int] = None,
    title: str = "Flame-rollup diff (virtual seconds by span path)",
) -> str:
    if not rows:
        return f"{title}: no deterministic rollup deltas"
    if top is not None:
        rows = rows[:top]
    width = max(len(r["path"]) for r in rows)
    lines = [
        title,
        f"  {'span path'.ljust(width)}  {'count':>13}  {'virt s':>21}  "
        f"{'delta':>10}",
    ]
    for row in rows:
        count = f"{row['count_baseline']}->{row['count_current']}"
        virt = (
            f"{row['virtual_baseline']:.4f}->{row['virtual_current']:.4f}"
        )
        lines.append(
            f"  {row['path'].ljust(width)}  {count:>13}  {virt:>21}  "
            f"{row['virtual_delta']:>+10.4f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Text rendering.


def _num(value: Any) -> str:
    if isinstance(value, float):
        text = f"{value:.4f}".rstrip("0").rstrip(".")
        return text or "0"
    return str(value)


def render_diff(
    diff: PerfDiff,
    title: str = "Perf diff",
    fail_on: str = REGRESSION,
) -> str:
    """The delta table ``python -m repro perf diff`` prints."""
    lines = [
        f"{title}: {diff.compared} record(s) compared, "
        f"{len(diff.counter_deltas)} counter delta(s), "
        f"{len(diff.regressions())} regression(s), "
        f"{len(diff.missing)} missing, {len(diff.added)} added"
    ]
    for note in diff.notes:
        lines.append(f"  note: {note}")
    if diff.counter_deltas:
        width = max(
            len(f"{d.key} {d.counter}") for d in diff.counter_deltas
        )
        lines.append("  deterministic counters:")
        for delta in diff.counter_deltas:
            label = f"{delta.key} {delta.counter}"
            before = "-" if delta.baseline is None else _num(delta.baseline)
            after = "-" if delta.current is None else _num(delta.current)
            change = (
                f"{delta.delta:+g}" if delta.delta is not None else "n/a"
            )
            lines.append(
                f"    {label.ljust(width)}  {before:>12} -> {after:>12}  "
                f"({change:>8})  [{delta.direction}]"
            )
    for record in diff.missing:
        gated = "" if record.kind == KIND_HARNESS_CELL else " (advisory)"
        lines.append(
            f"  missing from current: {record.key} [{record.kind}]{gated}"
        )
    for record in diff.added:
        lines.append(f"  added in current: {record.key} [{record.kind}]")
    out_of_band = [w for w in diff.wall_deltas if not w.within_band]
    if out_of_band:
        lines.append("  wall/RSS outside tolerance band (advisory):")
        for wall in out_of_band:
            ratio = (
                wall.current / wall.baseline if wall.baseline else 0.0
            )
            lines.append(
                f"    {wall.key} {wall.field}: {_num(wall.baseline)} -> "
                f"{_num(wall.current)} ({ratio:.2f}x, band "
                f"±{wall.tolerance:.0%})"
            )
    failures = diff.gate_failures(fail_on)
    if failures:
        lines.append(f"  GATE: FAIL ({len(failures)} reason(s))")
        for reason in failures:
            lines.append(f"    {reason}")
    else:
        lines.append(
            "  GATE: PASS (deterministic counters within policy; wall "
            "time advisory)"
        )
    return "\n".join(lines)


def render_effort_attribution(
    records: Iterable[PerfRecord],
    title: str = "Effort attribution (deterministic counters per cell)",
) -> str:
    """Per-cell search-effort table for the combined harness report.

    Only deterministic counters appear (summed across the
    original/retimed scopes of a pair cell), so the section is
    byte-identical across ``--jobs`` levels like the rest of the
    report.
    """
    columns = (
        ("backtracks", "atpg.backtracks"),
        ("frames", "atpg.frames_expanded"),
        ("examined", "atpg.states_examined"),
        ("sim events", "sim.events"),
        ("cpu s", "atpg.cpu_seconds"),
    )

    def total(record: PerfRecord, metric: str) -> float:
        return sum(
            value
            for key, value in record.counters.items()
            if metric_name(key) == metric
        )

    rows = [
        (record.key, [total(record, metric) for _, metric in columns])
        for record in records
        if record.counters
    ]
    if not rows:
        return f"{title}: no cells with counters"
    width = max(max(len(key) for key, _ in rows), len("cell"))
    lines = [
        title,
        f"  {'cell'.ljust(width)}  "
        + "  ".join(f"{header:>12}" for header, _ in columns),
    ]
    sums = [0.0] * len(columns)
    for key, values in rows:
        sums = [a + b for a, b in zip(sums, values)]
        lines.append(
            f"  {key.ljust(width)}  "
            + "  ".join(f"{_num(v):>12}" for v in values)
        )
    lines.append(
        f"  {'total'.ljust(width)}  "
        + "  ".join(f"{_num(v):>12}" for v in sums)
    )
    return "\n".join(lines)
