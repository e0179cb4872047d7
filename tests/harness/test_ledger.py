"""Unit tests for the JSONL run ledger."""

import json

import pytest

from repro.harness import ledger as ledger_mod
from repro.harness.ledger import (
    TaskRecord,
    append_record,
    completed_by_key,
    load_records,
    merge_lint_entries,
    new_run_id,
    quarantined_keys,
    render_lint_summary,
    terminate_torn_tail,
)


def record(key="hitec:dk16.ji.sd", outcome="ok", **overrides):
    fields = dict(
        key=key,
        kind="hitec_pair",
        fingerprint="f" * 16,
        outcome=outcome,
        pair="dk16.ji.sd",
        engine="hitec",
        tables=("table2", "table6", "table8"),
        counters={"original": {"atpg.backtracks": 7}},
        payload={"tables": {"table2": [{"circuit": "dk16.ji.sd"}]}},
    )
    fields.update(overrides)
    return TaskRecord(**fields)


class TestRecordRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        original = record(attempt=2, budget_scale=0.25, wall_seconds=1.5,
                          peak_rss_kb=4096, error="boom")
        restored = TaskRecord.from_dict(json.loads(original.to_json()))
        assert restored == original

    def test_records_are_versioned(self):
        assert json.loads(record().to_json())["v"] == 7

    def test_unknown_fields_are_ignored(self):
        data = json.loads(record().to_json())
        data["added_in_v9"] = {"future": True}
        assert TaskRecord.from_dict(data) == record()

    def test_v1_rows_are_rejected(self):
        """Rows older than v5 (v1's flat counter keys, v2-v4 rows
        without lifecycle records) predate MIN_RECORD_VERSION:
        from_dict raises, and load_records counts the line with the
        torn ones so an old ledger resumes as if empty."""
        data = json.loads(record().to_json())
        data["v"] = 1
        data["counters"] = {
            "original": {"backtracks": 7, "total_faults": 50},
        }
        with pytest.raises(ValueError, match="MIN_RECORD_VERSION"):
            TaskRecord.from_dict(data)
        data = json.loads(record().to_json())
        data["v"] = 4
        del data["lifecycle"]
        with pytest.raises(ValueError, match="MIN_RECORD_VERSION"):
            TaskRecord.from_dict(data)

    def test_v5_row_with_perf_and_search_reserializes_as_v6(self):
        """A v5 row's derived perf/search cores and a v5 or v6 row's
        ``metrics`` registry dump are dropped on load; everything else
        survives, so each row re-serializes to exactly the current
        (v7) row."""
        current = json.loads(record().to_json())
        metrics = {"atpg.backtracks{circuit=c,engine=hitec}": 7}
        v5 = dict(
            current,
            v=5,
            perf={
                "schema": 1,
                "counters": {"original/atpg.backtracks": 7},
            },
            search={},
            metrics=metrics,
        )
        v6 = dict(current, v=6, metrics=metrics)
        for old in (v5, v6):
            restored = TaskRecord.from_dict(old)
            assert restored == record()
            assert restored.to_json() == record().to_json()
            assert json.loads(restored.to_json()) == current

    def test_v5_lifecycle_round_trips(self):
        fault_record = {
            "fault": "x1/0",
            "order": 0,
            "outcome": "aborted",
            "provenance": "targeted",
            "abort_reason": "backtrack-limit",
            "detected_by": None,
            "backtracks": 300,
            "frames": 5,
            "sim_events": 12,
            "cpu_seconds": 0.25,
        }
        original = record(
            lifecycle={
                "schema": 1,
                "faults": {"original": [fault_record]},
            }
        )
        restored = TaskRecord.from_dict(json.loads(original.to_json()))
        assert restored == original


class TestLoadRecords:
    def test_append_then_load(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_record(path, record(key="a"))
        append_record(path, record(key="b", outcome="crashed"))
        records, torn = load_records(path)
        assert torn == 0
        assert [r.key for r in records] == ["a", "b"]

    def test_missing_file_is_empty(self, tmp_path):
        records, torn = load_records(str(tmp_path / "nope.jsonl"))
        assert records == [] and torn == 0

    def test_torn_lines_are_counted_not_fatal(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_record(path, record(key="a"))
        with open(path, "a") as handle:
            handle.write('{"v":1,"key":"b","kin')  # killed mid-write
        records, torn = load_records(path)
        assert [r.key for r in records] == ["a"]
        assert torn == 1

    def test_terminate_torn_tail_protects_next_append(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_record(path, record(key="a"))
        with open(path, "a") as handle:
            handle.write('{"v":1,"key":"b","kin')
        terminate_torn_tail(path)
        append_record(path, record(key="c"))
        records, torn = load_records(path)
        assert [r.key for r in records] == ["a", "c"]
        assert torn == 1

    def test_terminate_torn_tail_noop_on_clean_file(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_record(path, record(key="a"))
        import os

        size = os.path.getsize(path)
        terminate_torn_tail(path)
        assert os.path.getsize(path) == size
        terminate_torn_tail(str(tmp_path / "missing.jsonl"))  # no raise

    def test_order_tail_sorts_rows_after_start_by_key_order(self, tmp_path):
        """Rows before ``start`` stay put; later rows follow the key
        order, and one key's attempts keep their own order."""
        import os

        path = str(tmp_path / "ledger.jsonl")
        append_record(path, record(key="z"))
        start = os.path.getsize(path)
        for key, attempt in (("c", 0), ("a", 0), ("c", 1), ("b", 0)):
            append_record(path, record(key=key, attempt=attempt))
        ledger_mod.order_tail(path, start, ["a", "b", "c", "z"])
        records, torn = load_records(path)
        assert torn == 0
        assert [(r.key, r.attempt) for r in records] == [
            ("z", 0), ("a", 0), ("b", 0), ("c", 0), ("c", 1),
        ]
        assert not os.path.exists(path + ".tmp")


class TestCompletion:
    def test_latest_ok_wins_and_failures_excluded(self):
        records = [
            record(key="a", outcome="crashed", attempt=0),
            record(key="a", outcome="ok", attempt=1),
            record(key="b", outcome="timeout"),
            record(key="b", outcome="quarantined"),
        ]
        completed = completed_by_key(records)
        assert set(completed) == {"a"}
        assert completed["a"].attempt == 1
        assert quarantined_keys(records) == ["b"]

    def test_fingerprint_filter(self):
        records = [record(key="a", fingerprint="old-fingerprint")]
        assert completed_by_key(records, "new-fingerprint") == {}
        assert set(completed_by_key(records, "old-fingerprint")) == {"a"}


class TestLintTransport:
    def entry(self, stage, findings=1):
        return {
            "stage": stage,
            "findings": findings,
            "counts": {"warning": findings, "error": 0, "note": 0},
            "worst": "warning" if findings else None,
            "flagged": [f"DRC999 [warning] {stage}: x{i}"
                        for i in range(findings)],
        }

    def test_merge_replaces_repeated_stage_in_place(self):
        merged = merge_lint_entries([
            [self.entry("pre-atpg:a"), self.entry("pre-atpg:b")],
            [self.entry("pre-atpg:a", findings=2)],
        ])
        assert [e["stage"] for e in merged] == ["pre-atpg:a", "pre-atpg:b"]
        assert merged[0]["findings"] == 2

    def test_render_matches_live_lint_ledger(self):
        """The serialized/merged path must render byte-identically to
        LintLedger.render_summary on the same findings."""
        from repro.lint.core import Diagnostic, LintReport
        from repro.lint.gate import LintLedger
        from repro.lint.severity import Severity

        report = LintReport(
            circuit_name="demo",
            diagnostics=[
                Diagnostic(
                    rule_id="DRC002",
                    severity=Severity.WARNING,
                    subject="x3",
                    message="primary input influences no output or register",
                )
            ],
            rules_run=("DRC002",),
        )
        live = LintLedger()
        live.record("pre-atpg:demo", report)
        entries = ledger_mod.serialize_lint_ledger(live)
        assert render_lint_summary(entries) == live.render_summary()

    def test_render_empty(self):
        assert render_lint_summary([]) == (
            "Static analysis (DRC) gate: no circuits gated"
        )


def test_run_ids_sort_by_time_and_are_unique():
    ids = {new_run_id() for _ in range(8)}
    assert len(ids) == 8
