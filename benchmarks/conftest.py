"""Benchmark configuration.

Every bench regenerates one of the paper's tables or figures at the
``smoke`` effort preset (seconds-to-minutes) and asserts the *shape* of
the paper's result — who wins, in which direction, where the collapse
happens.  Absolute numbers are machine- and budget-dependent by design.

pytest-benchmark is used in pedantic single-round mode: table
regenerations are long-running experiments, not microbenchmarks.

After a bench session, results are also persisted in the perf-record
format (``benchmarks/baselines/pytest-bench.json``) so harness cell
records and bench timings share one schema: ``scripts/perf_snapshot.py``
folds them into its snapshot as advisory wall-only records, and
``python -m repro perf diff`` can compare two bench sessions
directly.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# The package, and the repo root for reference models kept in tests/.
sys.path.insert(0, os.path.dirname(BENCH_DIR))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))


@pytest.fixture
def once(benchmark):
    """Run the target exactly once under pytest-benchmark timing."""

    def run(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return run


def _bench_payload(session) -> dict:
    """The pytest-benchmark results of this session as the plugin's own
    JSON shape (the perf ingester consumes exactly that shape)."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:  # plugin absent or disabled
        return {}
    benchmarks = []
    for bench in bench_session.benchmarks:
        if bench.has_error or not bench.stats:
            continue
        # flat=False keeps stats nested under "stats" — the same shape
        # pytest-benchmark's own --benchmark-json file uses.
        benchmarks.append(bench.as_dict(include_data=False, flat=False))
    return {"benchmarks": benchmarks} if benchmarks else {}


def pytest_sessionfinish(session, exitstatus):
    """Persist bench timings into the perf baseline layout.

    Best-effort by design: a persistence failure must never turn a
    green bench session red, so everything is guarded.
    """
    try:
        payload = _bench_payload(session)
        if not payload:
            return
        from repro.obs.perf import (
            BaselineStore,
            PYTEST_BENCH_BASELINE,
            PerfSnapshot,
            collect_environment,
            records_from_pytest_benchmark,
        )

        records = records_from_pytest_benchmark(payload)
        if not records:
            return
        snapshot = PerfSnapshot(
            environment=collect_environment(
                preset="bench", jobs=1, repo_root=os.path.dirname(BENCH_DIR)
            ),
            records=records,
        )
        store = BaselineStore(os.path.join(BENCH_DIR, "baselines"))
        path = store.save(PYTEST_BENCH_BASELINE, snapshot)
        terminal = session.config.pluginmanager.get_plugin(
            "terminalreporter"
        )
        if terminal is not None:
            terminal.write_line(
                f"perf: {len(records)} bench record(s) -> {path}"
            )
    except Exception as exc:  # noqa: BLE001 - never fail the session
        sys.stderr.write(f"perf: bench persistence skipped: {exc}\n")


@pytest.fixture(scope="session")
def table2_smoke_runs():
    """One shared Table 2 smoke run for the benches that build on it
    (Tables 2, 6 and 8 all consume the same HITEC pair results)."""
    from repro.harness import HarnessConfig, table2

    config = HarnessConfig.smoke()
    table, runs = table2.generate(config)
    return config, table, runs
