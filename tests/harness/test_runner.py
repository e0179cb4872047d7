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
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.atpg import EffortBudget
from repro.harness import HarnessConfig, load_records, run_all, runner
from repro.harness.ledger import WALL_TIME_FIELDS
from repro.harness.runner import build_task_graph

from tests.service.helpers import running_daemon

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

    def test_metrics_dump_recorded_per_task(self, reports):
        _, _, serial_dir, _ = reports
        rows = ledger_rows_modulo_wall_time(serial_dir)
        metrics = rows["hitec:dk16.ji.sd"]["metrics"]
        key = "atpg.backtracks{circuit=dk16.ji.sd,engine=hitec}"
        assert metrics[key] > 0

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


def run_in_mode(tmp_path, config, mode):
    """Run ``config`` locally (``mode`` is the jobs level) or through an
    in-thread daemon (``mode == "daemon"``); returns the report and
    every attempt's row.  A daemon-routed run ledger keeps only each
    cell's final row, so that mode's attempt rows come from the
    daemon's own ledger."""
    runs = tmp_path / "runs"
    config = dataclasses.replace(config, runs_dir=str(runs))
    if mode != "daemon":
        return run_all(config, jobs=mode), single_run_records(runs)
    with running_daemon(tmp_path) as (_, instance):
        report = run_all(config, service_socket=instance.socket_path)
        records, _ = load_records(instance.ledger_file)
    # The daemon writes the same attempt rows as a local pool.
    _, local = run_in_mode(tmp_path / "local", config, 2)
    assert attempt_rows(records) == attempt_rows(local)
    return report, records


def attempt_rows(records):
    return [(r.attempt, r.outcome, r.error) for r in records]


class TestCrashRobustness:
    @pytest.mark.parametrize("mode", [1, 2, "daemon"])
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

    @pytest.mark.parametrize("mode", [1, 2, "daemon"])
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
    def check_killed_and_quarantined(self, tmp_path, mode):
        # Must not hang or raise.
        report, records = run_in_mode(tmp_path, hang_config(tmp_path, 0), mode)
        assert "dk16.ji.sd [aborted]" in report
        assert [r.outcome for r in records] == ["timeout", "quarantined"]
        assert "exceeded task timeout" in records[0].error
        assert records[1].error == "quarantined after 1 attempt(s): timeout"

    def check_both_attempts_recorded(self, tmp_path, mode):
        _, records = run_in_mode(tmp_path, hang_config(tmp_path, 1), mode)
        assert [(r.attempt, r.outcome) for r in records] == [
            (0, "timeout"),
            (1, "timeout"),
            (1, "quarantined"),
        ]

    def test_hung_worker_is_killed_and_quarantined(self, tmp_path):
        self.check_killed_and_quarantined(tmp_path, 2)

    def test_daemon_kills_and_quarantines_hung_worker(self, tmp_path):
        self.check_killed_and_quarantined(tmp_path, "daemon")

    def test_timeout_then_retry_records_both_attempts(self, tmp_path):
        self.check_both_attempts_recorded(tmp_path, 2)

    def test_daemon_timeout_then_retry_records_both_attempts(self, tmp_path):
        self.check_both_attempts_recorded(tmp_path, "daemon")


class TestConcurrentAppends:
    def test_threads_append_whole_rows(self, tmp_path, monkeypatch):
        """More threads than cores run cells into one ledger: every row
        lands whole, once."""
        blob = "x" * 50_000  # several write buffers per row
        monkeypatch.setitem(
            runner._CELLS, "table1", lambda task, config, obs: {"blob": blob}
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
                        ledger_file, lambda line: None, spawn=False,
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
