"""Unit tests for the perf-regression observatory (repro.obs.perf)."""

import copy
import json
import os

import pytest

from repro.obs.perf import (
    BaselineStore,
    KIND_BENCH,
    PerfRecord,
    PerfSnapshot,
    classify_delta,
    collect_environment,
    diff_rollups,
    diff_snapshots,
    flatten_counters,
    load_snapshot,
    metric_name,
    next_trajectory_path,
    record_from_ledger_row,
    records_from_pytest_benchmark,
    render_diff,
    render_effort_attribution,
    render_rollup_diff,
    snapshot_from_ledger,
    trajectory_snapshots,
    write_snapshot,
    write_trajectory_snapshot,
)
from repro.obs.perf.cli import main as perf_main


def cell(key="hitec:dk16.ji.sd", backtracks=100, **extra):
    counters = {
        "original/atpg.backtracks": backtracks,
        "original/atpg.faults_detected": 40,
        "retimed/atpg.backtracks": backtracks * 3,
        "retimed/atpg.cpu_seconds": 1.25,
    }
    counters.update(extra)
    return PerfRecord(
        key=key,
        engine="hitec",
        pair="dk16.ji.sd",
        counters=counters,
        wall_seconds=2.0,
        peak_rss_kb=50_000,
    )


def snapshot(*records):
    return PerfSnapshot(
        environment=collect_environment(preset="quick", jobs=1),
        records=list(records),
    )


class TestFlattening:
    def test_nested_scopes_flatten_sorted(self):
        flat = flatten_counters(
            {"retimed": {"atpg.backtracks": 2}, "original":
             {"atpg.backtracks": 1, "sim.events": 9}}
        )
        assert flat == {
            "original/atpg.backtracks": 1,
            "original/sim.events": 9,
            "retimed/atpg.backtracks": 2,
        }

    def test_top_level_keys_pass_through(self):
        assert flatten_counters({"atpg.backtracks": 5}) == {
            "atpg.backtracks": 5
        }

    def test_metric_name_strips_scopes(self):
        assert metric_name("original/atpg.backtracks") == "atpg.backtracks"
        assert metric_name("atpg.backtracks") == "atpg.backtracks"


class TestDirectionPolicy:
    def test_effort_up_is_regression(self):
        assert classify_delta("original/atpg.backtracks", +5) == "regression"
        assert classify_delta("x/sim.events", +1) == "regression"
        assert classify_delta("atpg.cpu_seconds", +0.1) == "regression"

    def test_effort_down_is_improvement(self):
        assert classify_delta("retimed/atpg.backtracks", -5) == "improvement"

    def test_quality_down_is_regression(self):
        assert classify_delta("x/cover.faults_detected", -1) == "regression"
        assert classify_delta("x/cover.faults_detected", +1) == "improvement"

    def test_expansion_effort_up_is_regression(self):
        assert classify_delta("x/sim.expansion_events", +1) == "regression"

    def test_undeclared_metric_is_drift(self):
        assert classify_delta("x/atpg.test_vectors", +3) == "drift"
        # Engine-level detects deliberately carry no direction: a
        # better static collapse shrinks the engine's target list.
        assert classify_delta("x/atpg.faults_detected", -1) == "drift"


class TestDiff:
    def test_identical_snapshots_are_clean(self):
        a = snapshot(cell(), cell(key="sest:s820.jc.sr"))
        diff = diff_snapshots(a, copy.deepcopy(a))
        assert diff.clean()
        assert diff.compared == 2
        assert diff.gate_failures() == []
        assert "GATE: PASS" in render_diff(diff)

    def test_counter_increase_gates(self):
        base = snapshot(cell(backtracks=100))
        curr = snapshot(cell(backtracks=120))
        diff = diff_snapshots(base, curr)
        assert [d.direction for d in diff.counter_deltas] == [
            "regression", "regression",
        ]  # original + retimed backtracks both rose
        assert diff.gate_failures()
        assert "GATE: FAIL" in render_diff(diff)

    def test_improvement_does_not_gate(self):
        diff = diff_snapshots(
            snapshot(cell(backtracks=100)), snapshot(cell(backtracks=50))
        )
        assert not diff.clean()
        assert diff.gate_failures() == []
        assert diff.gate_failures("any-delta")  # strict mode still trips

    def test_missing_harness_cell_gates(self):
        base = snapshot(cell(), cell(key="sest:s820.jc.sr"))
        diff = diff_snapshots(base, snapshot(cell()))
        assert [r.key for r in diff.missing_cells()] == ["sest:s820.jc.sr"]
        assert diff.gate_failures()

    def test_missing_bench_record_is_advisory(self):
        bench = PerfRecord(key="bench_table2", kind=KIND_BENCH,
                           wall_seconds=3.0)
        base = snapshot(cell(), bench)
        diff = diff_snapshots(base, snapshot(cell()))
        assert diff.missing and not diff.missing_cells()
        assert diff.gate_failures() == []

    def test_removed_counter_gates_added_does_not(self):
        base, curr = snapshot(cell()), snapshot(cell())
        del curr.records[0].counters["retimed/atpg.cpu_seconds"]
        curr.records[0].counters["original/atpg.new_counter"] = 1
        diff = diff_snapshots(base, curr)
        directions = {
            d.counter: d.direction for d in diff.counter_deltas
        }
        assert directions["retimed/atpg.cpu_seconds"] == "regression"
        assert directions["original/atpg.new_counter"] == "drift"

    def test_wall_outside_band_is_advisory_only(self):
        base = snapshot(cell())
        curr = copy.deepcopy(base)
        curr.records[0].wall_seconds = 100.0
        diff = diff_snapshots(base, curr, wall_tolerance=0.25)
        out_of_band = [w for w in diff.wall_deltas if not w.within_band]
        assert [w.field for w in out_of_band] == ["wall_seconds"]
        assert diff.gate_failures() == []
        assert "advisory" in render_diff(diff)

    def test_fingerprint_mismatch_noted(self):
        base = snapshot(cell())
        curr = copy.deepcopy(base)
        base.environment["fingerprint"] = "aaaa"
        curr.environment["fingerprint"] = "bbbb"
        diff = diff_snapshots(base, curr)
        assert any("fingerprint" in note for note in diff.notes)


class TestRollupDiff:
    def spans(self, justify_t1):
        return [
            {"path": "task", "t0": 0.0, "t1": 5.0, "wall_ms": 7.0},
            {"path": "task/atpg.justify", "t0": 1.0, "t1": justify_t1,
             "wall_ms": 3.0},
        ]

    def test_equal_spans_no_rows(self):
        assert diff_rollups(self.spans(2.0), self.spans(2.0)) == []

    def test_virtual_delta_surfaces_hot_path(self):
        rows = diff_rollups(self.spans(2.0), self.spans(4.0))
        assert [r["path"] for r in rows] == ["task/atpg.justify"]
        assert rows[0]["virtual_delta"] == pytest.approx(2.0)
        text = render_rollup_diff(rows)
        assert "task/atpg.justify" in text

    def test_wall_only_change_is_not_a_delta(self):
        a = self.spans(2.0)
        b = copy.deepcopy(a)
        b[0]["wall_ms"] = 900.0
        assert diff_rollups(a, b) == []


class TestSnapshotPersistence:
    def test_write_load_round_trip(self, tmp_path):
        snap = snapshot(cell(), cell(key="a:first")).sorted()
        path = write_snapshot(str(tmp_path / "snap.json"), snap)
        loaded = load_snapshot(path)
        assert [r.key for r in loaded.records] == ["a:first",
                                                   "hitec:dk16.ji.sd"]
        assert loaded.records[1].counters == snap.records[1].counters
        assert loaded.environment["preset"] == "quick"

    def test_environment_provenance_fields(self):
        env = collect_environment(preset="quick", jobs=4,
                                  fingerprint="abcd")
        assert set(env) == {"git_sha", "python", "platform", "preset",
                            "jobs", "fingerprint"}
        assert env["jobs"] == 4
        assert env["python"].count(".") >= 1

    def test_unknown_record_fields_ignored(self):
        record = PerfRecord.from_dict(
            {"key": "x", "added_in_v9": True, "counters": {"a.b": 1}}
        )
        assert record.key == "x" and record.counters == {"a.b": 1}


class TestBaselineStore:
    def test_save_load_names(self, tmp_path):
        store = BaselineStore(str(tmp_path / "baselines"))
        assert store.names() == []
        assert not store.exists("harness-quick")
        store.save("harness-quick", snapshot(cell()))
        assert store.names() == ["harness-quick"]
        loaded = store.load("harness-quick")
        assert loaded.records[0].key == "hitec:dk16.ji.sd"

    def test_trajectory_numbering(self, tmp_path):
        root = str(tmp_path)
        assert trajectory_snapshots(root) == []
        assert os.path.basename(next_trajectory_path(root)) == "BENCH_1.json"
        first = write_trajectory_snapshot(snapshot(cell()), root=root)
        assert os.path.basename(first) == "BENCH_1.json"
        second = write_trajectory_snapshot(snapshot(cell()), root=root)
        assert os.path.basename(second) == "BENCH_2.json"
        assert [n for n, _ in trajectory_snapshots(root)] == [1, 2]

    def test_trajectory_skips_gaps(self, tmp_path):
        (tmp_path / "BENCH_7.json").write_text("{}")
        assert os.path.basename(
            next_trajectory_path(str(tmp_path))
        ) == "BENCH_8.json"


class TestLedgerIngestion:
    def row(self, key="hitec:dk16.ji.sd", outcome="ok"):
        return {
            "v": 6,
            "key": key,
            "kind": "hitec_pair",
            "engine": "hitec",
            "pair": "dk16.ji.sd",
            "fingerprint": "f" * 16,
            "outcome": outcome,
            "attempt": 0,
            "budget_scale": 1.0,
            "wall_seconds": 1.5,
            "peak_rss_kb": 4096,
            "counters": {"original": {"atpg.backtracks": 7}},
        }

    def write_ledger(self, path, rows):
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")

    def test_v1_flat_keys_pass_through_unmapped(self):
        """v1 normalization is retired: rows that reach this layer are
        flattened as-is (the harness ledger rejects v1 rows upstream,
        so legacy flat keys never reach a snapshot in practice)."""
        row = self.row()
        row["v"] = 1
        row["counters"] = {"original": {"backtracks": 7}}
        record = record_from_ledger_row(row)
        assert record.counters == {"original/backtracks": 7}

    def test_snapshot_latest_ok_per_key(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        early = self.row()
        early["counters"] = {"original": {"atpg.backtracks": 1}}
        rows = [
            early,
            self.row(key="b:x", outcome="crashed"),
            self.row(),  # later ok attempt for the same key wins
        ]
        self.write_ledger(path, rows)
        snap = snapshot_from_ledger(path)
        assert [r.key for r in snap.records] == ["hitec:dk16.ji.sd"]
        assert snap.records[0].counters == {"original/atpg.backtracks": 7}

    def test_fingerprint_filter(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        self.write_ledger(path, [self.row()])
        assert snapshot_from_ledger(path, fingerprint="zz").records == []
        assert len(
            snapshot_from_ledger(path, fingerprint="f" * 16).records
        ) == 1

    def test_torn_lines_skipped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        self.write_ledger(path, [self.row()])
        with open(path, "a") as handle:
            handle.write('{"v":3,"key":"torn')
        assert len(snapshot_from_ledger(path).records) == 1


class TestPytestBenchmarkIngestion:
    def test_stats_become_bench_records(self):
        data = {
            "benchmarks": [
                {
                    "fullname": "bench_table2.py::test_table2",
                    "group": None,
                    "stats": {"mean": 2.5, "min": 2.0, "max": 3.0,
                              "rounds": 1, "stddev": 0.0},
                },
                {"fullname": "bench_table1.py::test_table1",
                 "stats": {"mean": 0.5, "rounds": 1}},
            ]
        }
        records = records_from_pytest_benchmark(data)
        assert [r.key for r in records] == [
            "bench_table1.py::test_table1",
            "bench_table2.py::test_table2",
        ]
        assert all(r.kind == KIND_BENCH for r in records)
        assert records[1].wall_seconds == 2.5
        assert records[1].attrs["rounds"] == 1

    def test_empty_payload(self):
        assert records_from_pytest_benchmark({}) == []


class TestEffortAttribution:
    def test_table_sums_scopes_and_totals(self):
        text = render_effort_attribution([cell(), cell(key="z:last")])
        lines = text.splitlines()
        assert "hitec:dk16.ji.sd" in lines[2]
        assert lines[-1].lstrip().startswith("total")
        # original 100 + retimed 300 backtracks
        assert "400" in lines[2]

    def test_empty(self):
        assert "no cells" in render_effort_attribution([])


class TestCli:
    def write(self, tmp_path, name, snap):
        return write_snapshot(str(tmp_path / name), snap)

    def test_diff_exit_zero_on_identical(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", snapshot(cell()))
        b = self.write(tmp_path, "b.json", snapshot(cell()))
        assert perf_main(["diff", a, b]) == 0
        assert "GATE: PASS" in capsys.readouterr().out

    def test_diff_exit_nonzero_on_regression(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", snapshot(cell(backtracks=10)))
        b = self.write(tmp_path, "b.json", snapshot(cell(backtracks=20)))
        report = str(tmp_path / "out" / "report.txt")
        assert perf_main(["diff", a, b, "--report", report]) == 1
        assert "GATE: FAIL" in capsys.readouterr().out
        with open(report) as handle:
            assert "regression" in handle.read()

    def test_diff_fail_on_never(self, tmp_path):
        a = self.write(tmp_path, "a.json", snapshot(cell(backtracks=10)))
        b = self.write(tmp_path, "b.json", snapshot(cell(backtracks=20)))
        assert perf_main(["diff", a, b, "--fail-on", "never"]) == 0

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", snapshot(cell()))
        assert perf_main(["diff", a, str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_without_ledger_exits_two(self, tmp_path):
        a = self.write(tmp_path, "a.json", snapshot(cell()))
        empty = tmp_path / "rundir"
        empty.mkdir()
        assert perf_main(["diff", a, str(empty)]) == 2

    def test_jsonl_without_ledger_rows_exits_two(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        span = {"seq": 0, "name": "task", "path": "task", "t0": 0.0}
        trace.write_text(json.dumps(span) + "\n")
        assert perf_main(["diff", str(trace), str(trace)]) == 2
        assert "no ledger row" in capsys.readouterr().err

    def test_ledger_without_ok_rows_is_accepted(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        row = TestLedgerIngestion().row(outcome="crashed")
        ledger.write_text(json.dumps(row) + "\n")
        assert perf_main(["diff", str(ledger), str(ledger)]) == 0

    def test_show_renders_effort_table(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", snapshot(cell()))
        assert perf_main(["show", a]) == 0
        out = capsys.readouterr().out
        assert "Effort attribution" in out
        assert "environment:" in out

    def test_pytest_benchmark_json_accepted(self, tmp_path, capsys):
        data = {"benchmarks": [{"fullname": "b::t",
                                "stats": {"mean": 1.0, "rounds": 1}}]}
        path = tmp_path / "pb.json"
        path.write_text(json.dumps(data))
        assert perf_main(["diff", str(path), str(path)]) == 0
