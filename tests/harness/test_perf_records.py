"""PerfRecords inherit the runner's jobs-invariance guarantee.

The deterministic virtual clock makes every counter a pure function of
the search, so the perf snapshot of a ``jobs=1`` run and a ``jobs=2``
run of the same config must carry identical deterministic counters —
any counter delta between two snapshots is attributable to a code
change, which is exactly what the CI perf gate relies on.
"""

import copy
import json
import os

import pytest

from repro.harness import run_all
from repro.obs.perf import (
    diff_snapshots,
    flatten_counters,
    load_snapshot,
    snapshot_from_ledger,
    write_snapshot,
)
from repro.obs.perf.cli import main as perf_main

from .test_runner import PAIRS, lean_config


def run_dir_of(runs_dir):
    (run_id,) = os.listdir(runs_dir)
    return os.path.join(str(runs_dir), run_id)


class TestJobsInvariance:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        from repro.harness import suite

        serial_dir = tmp_path_factory.mktemp("perf-serial")
        parallel_dir = tmp_path_factory.mktemp("perf-parallel")
        snapshot_file = str(
            tmp_path_factory.mktemp("perf-out") / "serial.json"
        )
        suite.clear_caches()
        serial_report = run_all(
            lean_config(serial_dir), jobs=1, quiet=True,
            perf_snapshot=snapshot_file,
        )
        suite.clear_caches()
        run_all(lean_config(parallel_dir), jobs=2, quiet=True)
        return serial_dir, parallel_dir, snapshot_file, serial_report

    def test_counters_identical_across_jobs(self, runs):
        serial_dir, parallel_dir, _, _ = runs
        serial = snapshot_from_ledger(
            os.path.join(run_dir_of(serial_dir), "ledger.jsonl")
        )
        parallel = snapshot_from_ledger(
            os.path.join(run_dir_of(parallel_dir), "ledger.jsonl")
        )
        assert len(serial.records) == len(parallel.records) > 0
        diff = diff_snapshots(serial, parallel)
        assert diff.counter_deltas == []
        assert diff.gate_failures() == []

    def test_cli_diff_of_run_dirs_exits_zero(self, runs, capsys):
        serial_dir, parallel_dir, _, _ = runs
        code = perf_main(
            ["diff", run_dir_of(serial_dir), run_dir_of(parallel_dir)]
        )
        assert code == 0
        assert "GATE: PASS" in capsys.readouterr().out

    def test_snapshot_written_by_run_all(self, runs):
        _, _, snapshot_file, _ = runs
        snapshot = load_snapshot(snapshot_file)
        engines_covered = {record.engine for record in snapshot.records}
        assert {"hitec", "sest", "simbased"} <= engines_covered
        assert {record.pair for record in snapshot.records} >= set(PAIRS)
        assert snapshot.environment["jobs"] == 1
        assert snapshot.environment["fingerprint"]
        for record in snapshot.records:
            # Structural-analysis cells run no ATPG, so only
            # engine-bearing cells are guaranteed counters.
            if record.engine:
                assert record.counters, record.key
            assert record.wall_seconds >= 0.0

    def test_report_carries_effort_attribution(self, runs):
        _, _, _, report = runs
        assert "Effort attribution" in report
        # The section is wall-free: deterministic counters only.
        section = report[report.index("Effort attribution"):]
        assert "wall" not in section

    def test_injected_regression_fails_gate(self, runs, tmp_path, capsys):
        """Mutating one deterministic counter must flip the CLI to
        exit 1 — the acceptance check for the perf gate."""
        serial_dir, _, _, _ = runs
        baseline = snapshot_from_ledger(
            os.path.join(run_dir_of(serial_dir), "ledger.jsonl")
        )
        current = copy.deepcopy(baseline)
        target = current.records[0]
        counter = next(
            key for key in target.counters if key.endswith("backtracks")
        )
        target.counters[counter] += 100
        base_path = write_snapshot(str(tmp_path / "base.json"), baseline)
        curr_path = write_snapshot(str(tmp_path / "curr.json"), current)
        assert perf_main(["diff", base_path, curr_path]) == 1
        out = capsys.readouterr().out
        assert "GATE: FAIL" in out
        assert "regression" in out

    def test_dropped_cell_fails_gate(self, runs, tmp_path):
        serial_dir, _, _, _ = runs
        baseline = snapshot_from_ledger(
            os.path.join(run_dir_of(serial_dir), "ledger.jsonl")
        )
        current = copy.deepcopy(baseline)
        del current.records[0]
        base_path = write_snapshot(str(tmp_path / "base.json"), baseline)
        curr_path = write_snapshot(str(tmp_path / "curr.json"), current)
        assert perf_main(["diff", base_path, curr_path]) == 1

    def test_ledger_perf_field_is_wall_free(self, runs):
        """The perf snapshot is built from ok rows' counters, which
        must never carry machine-dependent fields, or the ledger's
        modulo-wall-time equivalence breaks."""
        serial_dir, _, _, _ = runs
        path = os.path.join(run_dir_of(serial_dir), "ledger.jsonl")
        with open(path, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        assert rows
        for row in rows:
            if row.get("outcome") != "ok":
                continue
            assert not any(
                "wall" in key or "rss" in key
                for key in flatten_counters(row["counters"])
            )
