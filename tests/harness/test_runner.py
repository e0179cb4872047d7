"""Serial-vs-parallel equivalence and fault-tolerance of the runner.

The deterministic virtual clock (``EffortBudget.deterministic_clock``)
makes every ATPG counter — including reported CPU seconds — a pure
function of the search, so a ``jobs=1`` run and a ``jobs=4`` run of the
same config must produce byte-identical reports and identical ledger
rows modulo the wall-time fields.
"""

import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.atpg import EffortBudget
from repro.harness import HarnessConfig, load_records, run_all, runner
from repro.harness.ledger import WALL_TIME_FIELDS
from repro.harness.runner import build_task_graph

PAIRS = ("dk16.ji.sd", "s820.jc.sr", "pma.jo.sd")

LEAN_BUDGET = EffortBudget(
    max_backtracks=30,
    max_frames=3,
    max_justify_depth=5,
    max_preimages=2,
    per_fault_seconds=0.2,
    total_seconds=8.0,
    random_sequences=6,
    random_length=12,
    deterministic_clock=True,
)


def lean_config(runs_dir, **overrides):
    base = HarnessConfig(
        budget=LEAN_BUDGET,
        max_faults=50,
        circuits=PAIRS,
        tables=("table1", "table2", "table3", "table4", "table5",
                "table6", "table8"),
        runs_dir=str(runs_dir),
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def strip_wall_time(report):
    return "\n".join(
        line
        for line in report.splitlines()
        if not line.startswith("total harness time")
    ).rstrip("\n")


def ledger_rows_modulo_wall_time(runs_dir):
    """{task key: comparable record dict} for the single run under
    ``runs_dir``, with run-to-run-varying fields removed."""
    (run_id,) = os.listdir(runs_dir)
    path = os.path.join(runs_dir, run_id, "ledger.jsonl")
    records, torn = load_records(path)
    assert torn == 0
    rows = {}
    for record in records:
        data = dataclasses.asdict(record)
        for field in WALL_TIME_FIELDS:
            data.pop(field)
        rows[record.key] = data
    return rows


class TestEquivalence:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        from repro.harness import suite

        suite.clear_caches()
        serial_dir = tmp_path_factory.mktemp("serial")
        parallel_dir = tmp_path_factory.mktemp("parallel")
        serial = run_all(lean_config(serial_dir), jobs=1)
        suite.clear_caches()
        parallel = run_all(lean_config(parallel_dir), jobs=4)
        return serial, parallel, serial_dir, parallel_dir

    def test_reports_byte_identical(self, reports):
        serial, parallel, _, _ = reports
        assert strip_wall_time(serial) == strip_wall_time(parallel)

    def test_parallel_ledger_keeps_task_graph_order(self, reports):
        """The pool's rows, appended as cells finish, are put back in
        task-graph order: both ledgers list the same keys in the same
        order."""
        _, _, serial_dir, parallel_dir = reports
        serial = [r.key for r in single_run_records(serial_dir)]
        assert [r.key for r in single_run_records(parallel_dir)] == serial
        graph = build_task_graph(lean_config(serial_dir))
        assert serial == [task.key for task in graph]

    def test_every_cell_succeeded(self, reports):
        serial, parallel, _, _ = reports
        assert "[aborted]" not in serial
        assert "aborted after retries" not in serial

    def test_ledger_rows_identical_modulo_wall_time(self, reports):
        _, _, serial_dir, parallel_dir = reports
        serial_rows = ledger_rows_modulo_wall_time(serial_dir)
        parallel_rows = ledger_rows_modulo_wall_time(parallel_dir)
        assert serial_rows == parallel_rows

    def test_atpg_counters_populated(self, reports):
        _, _, serial_dir, _ = reports
        rows = ledger_rows_modulo_wall_time(serial_dir)
        hitec = rows["hitec:dk16.ji.sd"]
        for side in ("original", "retimed"):
            counters = hitec["counters"][side]
            assert counters["atpg.faults_total"] > 0
            assert counters["atpg.backtracks"] > 0
            assert counters["atpg.frames_expanded"] > 0
            assert counters["atpg.cpu_seconds"] > 0

    def test_lifecycle_cores_in_ledger_rows(self, reports):
        """Engine-pair cells persist the per-fault lifecycle core;
        non-ATPG cells carry none."""
        _, _, serial_dir, _ = reports
        rows = ledger_rows_modulo_wall_time(serial_dir)
        lifecycle = rows["hitec:dk16.ji.sd"]["lifecycle"]
        assert lifecycle["schema"] == 1
        for side in ("original", "retimed"):
            records = lifecycle["faults"][side]
            assert records
            for record in records:
                assert record["outcome"] in (
                    "detected", "redundant", "aborted",
                )
                aborted = record["outcome"] == "aborted"
                assert (record["abort_reason"] is not None) == aborted
        assert rows["struct:dk16.ji.sd"]["lifecycle"] == {}

    def test_every_task_in_graph_has_a_row(self, reports):
        _, _, serial_dir, _ = reports
        rows = ledger_rows_modulo_wall_time(serial_dir)
        graph = build_task_graph(lean_config(serial_dir))
        assert {task.key for task in graph} == set(rows)


def struct_only_config(runs_dir, **overrides):
    return lean_config(
        runs_dir,
        circuits=("dk16.ji.sd",),
        tables=("table5",),
        **overrides,
    )


def single_run_records(runs_dir):
    (run_id,) = os.listdir(runs_dir)
    records, _ = load_records(
        os.path.join(runs_dir, run_id, "ledger.jsonl")
    )
    return records


def run_in_mode(tmp_path, config, jobs):
    """Run ``config`` at the given jobs level; returns the report and
    every attempt's row."""
    runs = tmp_path / "runs"
    config = dataclasses.replace(config, runs_dir=str(runs))
    return run_all(config, jobs=jobs), single_run_records(runs)


class TestCrashRobustness:
    @pytest.mark.parametrize("mode", [1, 2])
    def test_poison_cell_is_quarantined(self, tmp_path, mode):
        config = struct_only_config(
            tmp_path,
            task_hook="tests.harness.hooks:crash_struct",
            max_task_retries=1,
        )
        report, records = run_in_mode(tmp_path, config, mode)
        assert "dk16.ji.sd [aborted]" in report
        assert [(r.attempt, r.outcome) for r in records] == [
            (0, "crashed"),
            (1, "crashed"),
            (1, "quarantined"),
        ]
        assert records[-1].error == "quarantined after 2 attempt(s): crashed"

    @pytest.mark.parametrize("mode", [1, 2])
    def test_retry_with_smaller_budget_recovers(self, tmp_path, mode):
        config = struct_only_config(
            tmp_path,
            task_hook="tests.harness.hooks:crash_full_budget",
            max_task_retries=1,
        )
        report, records = run_in_mode(tmp_path, config, mode)
        assert "[aborted]" not in report
        assert [(r.attempt, r.outcome) for r in records] == [
            (0, "crashed"),
            (1, "ok"),
        ]
        assert records[1].budget_scale == pytest.approx(0.5)

    def test_crash_record_carries_traceback(self, tmp_path):
        config = struct_only_config(
            tmp_path,
            task_hook="tests.harness.hooks:crash_struct",
            max_task_retries=0,
        )
        run_all(config, jobs=2)
        crashed = single_run_records(tmp_path)[0]
        assert crashed.outcome == "crashed"
        assert "injected crash in struct:dk16.ji.sd" in crashed.error


def hang_config(tmp_path, retries):
    return struct_only_config(
        tmp_path,
        task_hook="tests.harness.hooks:hang_struct",
        task_timeout_seconds=2.0,
        max_task_retries=retries,
    )


class TestTimeout:
    def test_hung_worker_is_killed_and_quarantined(self, tmp_path):
        # Must not hang or raise.
        report, records = run_in_mode(tmp_path, hang_config(tmp_path, 0), 2)
        assert "dk16.ji.sd [aborted]" in report
        assert [r.outcome for r in records] == ["timeout", "quarantined"]
        assert "exceeded task timeout" in records[0].error
        assert records[1].error == "quarantined after 1 attempt(s): timeout"

    def test_timeout_then_retry_records_both_attempts(self, tmp_path):
        _, records = run_in_mode(tmp_path, hang_config(tmp_path, 1), 2)
        assert [(r.attempt, r.outcome) for r in records] == [
            (0, "timeout"),
            (1, "timeout"),
            (1, "quarantined"),
        ]


class TestPoolStop:
    @pytest.mark.parametrize("retries", [0, 1])
    def test_stop_kills_running_worker_and_writes_no_row(
        self, tmp_path, retries
    ):
        """Stopping the pool mid-attempt kills the cell's worker; the
        attempt is neither retried nor quarantined and writes no row."""
        config = struct_only_config(
            tmp_path,
            task_hook="tests.harness.hooks:hang_struct",
            task_timeout_seconds=120.0,
            max_task_retries=retries,
        )
        (task,) = build_task_graph(config)
        pool = runner._Pool([task])
        ledger_file = str(tmp_path / "ledger.jsonl")
        with ThreadPoolExecutor(max_workers=1) as threads:
            future = threads.submit(
                runner.run_cell, task, config, str(tmp_path / "results"),
                ledger_file, lambda line: None, pool,
            )
            deadline = time.monotonic() + 60.0
            while not pool._processes or not pool._processes[0].is_alive():
                assert time.monotonic() < deadline
                time.sleep(0.02)
            pool.stop()
            assert future.result(timeout=60) is None
        (worker,) = pool._processes  # no second attempt started
        worker.join(10.0)
        assert not worker.is_alive()
        assert not os.path.exists(ledger_file)


class TestConcurrentAppends:
    def test_threads_append_whole_rows(self, tmp_path, monkeypatch):
        """More threads than cores run cells into one ledger: every row
        lands whole, once."""
        blob = "x" * 50_000  # several write buffers per row
        monkeypatch.setitem(
            runner._CELLS, "table1", lambda task, config, tracer: {"blob": blob}
        )
        config = lean_config(tmp_path, max_task_retries=0)
        ledger_file = str(tmp_path / "ledger.jsonl")
        tasks = [
            runner.TaskSpec(key=f"table1:{n}", kind="table1")
            for n in range(60)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as threads:
                futures = [
                    threads.submit(
                        runner.run_cell, task, config, str(tmp_path),
                        ledger_file, lambda line: None,
                    )
                    for task in tasks
                ]
                for future in futures:
                    assert future.result(timeout=60).outcome == "ok"
        finally:
            sys.setswitchinterval(interval)
        records, torn = load_records(ledger_file)
        assert torn == 0
        assert sorted(r.key for r in records) == sorted(t.key for t in tasks)
        assert all(r.payload["blob"] == blob for r in records)


class TestArtifacts:
    def test_run_directory_layout(self, tmp_path):
        config = struct_only_config(tmp_path)
        run_all(config, jobs=1)
        (run_id,) = os.listdir(tmp_path)
        run_dir = os.path.join(str(tmp_path), run_id)
        assert os.path.exists(os.path.join(run_dir, "ledger.jsonl"))
        assert os.path.exists(os.path.join(run_dir, "report.txt"))
        with open(os.path.join(run_dir, "config.json")) as handle:
            saved = json.load(handle)
        assert saved["fingerprint"] == config.fingerprint()
        assert saved["config"]["max_faults"] == config.max_faults
