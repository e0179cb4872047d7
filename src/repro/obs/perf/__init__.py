"""Performance-regression observatory (``repro.obs.perf``).

Layered on the observability stack: :class:`PerfRecord` snapshots what
one benchmark / harness cell cost (deterministic WorkClock counters +
advisory wall seconds and peak RSS), :class:`BaselineStore` persists
expected snapshots under ``benchmarks/baselines/`` plus numbered
``BENCH_<n>.json`` trajectory files at the repo root, and the diff
engine compares two snapshots or run ledgers — exactly on counters,
by tolerance band on wall time.

CLI::

    python -m repro perf diff <baseline> <current>
    python -m repro perf show <snapshot-or-run>

where each argument may be a snapshot JSON, a run directory, a
``ledger.jsonl``, or a pytest-benchmark JSON export.
"""

from .record import (
    KIND_BENCH,
    KIND_HARNESS_CELL,
    PERF_SCHEMA_VERSION,
    PerfRecord,
    PerfSnapshot,
    collect_environment,
    flatten_counters,
    load_snapshot,
    metric_name,
    record_from_ledger_row,
    records_from_pytest_benchmark,
    snapshot_from_ledger,
    write_snapshot,
)
from .store import (
    BaselineStore,
    DEFAULT_BASELINE_DIR,
    HARNESS_BASELINE,
    PYTEST_BENCH_BASELINE,
    next_trajectory_path,
    trajectory_snapshots,
    write_trajectory_snapshot,
)
from .diff import (
    CounterDelta,
    DRIFT,
    HIGHER_IS_WORSE,
    IMPROVEMENT,
    LOWER_IS_WORSE,
    PerfDiff,
    REGRESSION,
    WallDelta,
    classify_delta,
    diff_records,
    diff_rollups,
    diff_snapshots,
    render_diff,
    render_effort_attribution,
    render_rollup_diff,
)

__all__ = [
    "BaselineStore",
    "CounterDelta",
    "DEFAULT_BASELINE_DIR",
    "DRIFT",
    "HARNESS_BASELINE",
    "HIGHER_IS_WORSE",
    "IMPROVEMENT",
    "KIND_BENCH",
    "KIND_HARNESS_CELL",
    "LOWER_IS_WORSE",
    "PERF_SCHEMA_VERSION",
    "PYTEST_BENCH_BASELINE",
    "PerfDiff",
    "PerfRecord",
    "PerfSnapshot",
    "REGRESSION",
    "WallDelta",
    "classify_delta",
    "collect_environment",
    "diff_records",
    "diff_rollups",
    "diff_snapshots",
    "flatten_counters",
    "load_snapshot",
    "metric_name",
    "next_trajectory_path",
    "record_from_ledger_row",
    "records_from_pytest_benchmark",
    "render_diff",
    "render_effort_attribution",
    "render_rollup_diff",
    "snapshot_from_ledger",
    "trajectory_snapshots",
    "write_snapshot",
    "write_trajectory_snapshot",
]
