"""Fault-lifecycle & coverage observatory: observer, report, CLI."""

import json
import types

import pytest

from repro.obs.coverage import (
    ABORT_BACKTRACK_LIMIT,
    ABORT_REASONS,
    ABORT_STALL,
    ABORT_TIME_BUDGET,
    COVERAGE_SCHEMA_VERSION,
    INCIDENTAL_PROVENANCES,
    PROV_FAULT_DROP,
    PROV_RANDOM_PHASE,
    PROV_TARGETED,
    TARGETS_SCHEMA_VERSION,
    cell_records_from_ledger_rows,
    coverage_curves,
    hard_fault_targets,
    lifecycle_core,
    lifecycle_counter_block,
    rank_hard_faults,
    render_abort_forensics,
    render_coverage_curves,
    render_hard_faults,
    render_report,
)
from repro.atpg.result import FaultBook, Stopwatch, WorkClock
from repro.obs.report import main as report_cli
from repro.obs.search import SearchObserver, StateClassifier
from repro.obs import Tracer


def rec(fault, outcome, provenance=PROV_TARGETED, abort_reason=None,
        detected_by=None, backtracks=0, frames=0, sim_events=0,
        cpu_seconds=0.0, order=0):
    return {
        "fault": fault,
        "order": order,
        "outcome": outcome,
        "provenance": provenance,
        "abort_reason": abort_reason,
        "detected_by": detected_by,
        "backtracks": backtracks,
        "frames": frames,
        "sim_events": sim_events,
        "cpu_seconds": cpu_seconds,
    }


class TestObserver:
    """The engines' fault book (``repro.atpg.result.FaultBook``): the
    one writer of lifecycle records."""

    @pytest.fixture
    def simulator(self):
        """Stands in for the fault simulator: the book reads only its
        ``events`` count."""
        return types.SimpleNamespace(events=0)

    @pytest.fixture
    def clock(self):
        return WorkClock()

    @pytest.fixture
    def book(self, two_bit_counter, simulator, clock):
        faults = ("x1/0", "x1/1", "g3/1", "a/0", "b/1", "c/0")
        return FaultBook(
            faults,
            Stopwatch(60.0, clock=clock),
            simulator,
            SearchObserver(StateClassifier(two_bit_counter)),
        )

    def test_targeted_bracket_stores_sim_event_delta(
        self, book, simulator, clock
    ):
        simulator.events += 100
        with book.target("x1/0", Tracer()) as scope:
            simulator.events += 60
            clock.charge(5000)
        scope.close("detected", 7, 2, detected_by=3)
        (record,) = book.records()
        assert record["sim_events"] == 60
        assert record["backtracks"] == 7
        assert record["frames"] == 2
        assert record["detected_by"] == 3
        assert record["provenance"] == PROV_TARGETED
        assert record["abort_reason"] is None
        assert record["cpu_seconds"] == 0.5

    def test_abort_reason_only_on_aborted_outcome(self, book):
        with book.target("x1/0", Tracer()) as scope:
            pass
        scope.close("aborted", 0, 0, abort_reason=ABORT_BACKTRACK_LIMIT)
        with book.target("x1/1", Tracer()) as scope:
            pass
        scope.close(
            "redundant", 0, 0, abort_reason=ABORT_BACKTRACK_LIMIT
        )
        aborted, redundant = book.records()
        assert aborted["abort_reason"] == ABORT_BACKTRACK_LIMIT
        assert aborted["detected_by"] is None
        assert redundant["abort_reason"] is None

    def test_incidental_detection_carries_no_effort(self, book, clock):
        clock.charge(12500)
        book.detected("g3/1", PROV_FAULT_DROP, 2)
        (record,) = book.records()
        assert record["outcome"] == "detected"
        assert record["provenance"] == PROV_FAULT_DROP
        assert record["detected_by"] == 2
        assert record["backtracks"] == 0
        assert record["frames"] == 0
        assert record["sim_events"] == 0
        assert record["cpu_seconds"] == 1.25

    def test_note_abort_is_targeted_with_zero_effort(self, book):
        book.abort("g3/1", ABORT_TIME_BUDGET)
        (record,) = book.records()
        assert record["outcome"] == "aborted"
        assert record["provenance"] == PROV_TARGETED
        assert record["abort_reason"] == ABORT_TIME_BUDGET
        assert record["backtracks"] == 0

    def test_order_is_resolution_order(self, book):
        book.detected("a/0", PROV_RANDOM_PHASE, 0)
        with book.target("b/1", Tracer()) as scope:
            # Under search, a fault is neither open nor resolved.
            assert not book.is_open("b/1")
            assert "b/1" not in book.open_faults()
        scope.close("detected", 0, 0, detected_by=1)
        book.abort("c/0", ABORT_STALL)
        assert [r["order"] for r in book.records()] == [0, 1, 2]
        assert [r["fault"] for r in book.records()] == [
            "a/0", "b/1", "c/0",
        ]
        assert book.open_faults() == ["x1/0", "x1/1", "g3/1"]
        statuses = book.statuses()
        assert list(statuses) == [
            "x1/0", "x1/1", "g3/1", "a/0", "b/1", "c/0",
        ]
        assert statuses["b/1"].state == "detected"
        assert statuses["b/1"].detected_by == 1
        assert statuses["c/0"].state == "aborted"
        assert statuses["x1/0"].is_open()
        checkpoint = book.checkpoint()
        assert (checkpoint.detected, checkpoint.processed) == (2, 3)
        assert checkpoint.total == 6


class TestCounterBlock:
    def test_empty_records_yield_no_counters(self):
        assert lifecycle_counter_block([]) == {}

    def test_full_counter_set_with_any_record(self):
        block = lifecycle_counter_block(
            [rec("a/0", "detected", detected_by=0)]
        )
        assert block["lifecycle.faults_targeted"] == 1
        assert block["lifecycle.detected_targeted"] == 1
        assert block["lifecycle.detected_incidental"] == 0
        for reason in ABORT_REASONS:
            key = "lifecycle.aborted_" + reason.replace("-", "_")
            assert block[key] == 0

    def test_taxonomy_split(self):
        block = lifecycle_counter_block([
            rec("a/0", "detected", detected_by=0),
            rec("b/0", "detected", provenance=PROV_RANDOM_PHASE,
                detected_by=0),
            rec("c/0", "aborted", abort_reason=ABORT_BACKTRACK_LIMIT),
            rec("d/0", "aborted", abort_reason=ABORT_TIME_BUDGET),
            rec("e/0", "redundant"),
        ])
        assert block["lifecycle.faults_targeted"] == 4  # all but b/0
        assert block["lifecycle.detected_targeted"] == 1
        assert block["lifecycle.detected_incidental"] == 1
        assert block["lifecycle.aborted_backtrack_limit"] == 1
        assert block["lifecycle.aborted_time_budget"] == 1
        assert block["lifecycle.aborted_frame_limit"] == 0


class TestLifecycleCore:
    def test_empty_scopes_collapse_to_empty_dict(self):
        assert lifecycle_core({"original": [], "retimed": []}) == {}
        assert lifecycle_core({}) == {}

    def test_non_empty_scopes_are_versioned(self):
        records = [rec("a/0", "detected", detected_by=0)]
        core = lifecycle_core({"original": records, "retimed": []})
        assert core == {
            "schema": COVERAGE_SCHEMA_VERSION,
            "faults": {"original": records},
        }


def ledger_row(key, pair, engine, scoped_records, outcome="ok"):
    lifecycle = lifecycle_core(scoped_records) if scoped_records else {}
    return {
        "v": 5,
        "key": key,
        "outcome": outcome,
        "pair": pair,
        "engine": engine,
        "lifecycle": lifecycle,
    }


SAMPLE_ROWS = [
    ledger_row(
        "hitec:dk16.ji.sd",
        "dk16.ji.sd",
        "hitec",
        {
            "original": [
                rec("x1/0", "detected", detected_by=0, backtracks=2,
                    cpu_seconds=0.1, order=0),
                rec("x1/1", "detected", provenance=PROV_FAULT_DROP,
                    detected_by=0, cpu_seconds=0.1, order=1),
                rec("g2/0", "redundant", cpu_seconds=0.2, order=2),
                rec("g2/1", "detected", detected_by=1, backtracks=5,
                    cpu_seconds=0.4, order=3),
            ],
            "retimed": [
                rec("x1/0", "aborted",
                    abort_reason=ABORT_BACKTRACK_LIMIT,
                    backtracks=300, cpu_seconds=0.3, order=0),
                rec("g2/1", "detected", detected_by=0, backtracks=1,
                    cpu_seconds=0.5, order=1),
            ],
        },
    ),
    ledger_row("struct:dk16.ji.sd", "dk16.ji.sd", None, {}),
]


class TestCellRecords:
    def test_rows_split_per_scope_with_retimed_suffix(self):
        cells = cell_records_from_ledger_rows(SAMPLE_ROWS)
        assert [(c.cell, c.scope, c.circuit) for c in cells] == [
            ("hitec:dk16.ji.sd", "original", "dk16.ji.sd"),
            ("hitec:dk16.ji.sd", "retimed", "dk16.ji.sd.re"),
        ]
        assert len(cells[0].records) == 4

    def test_latest_ok_row_wins(self):
        stale = ledger_row(
            "hitec:dk16.ji.sd",
            "dk16.ji.sd",
            "hitec",
            {"original": [rec("stale/0", "redundant")]},
        )
        cells = cell_records_from_ledger_rows([stale] + SAMPLE_ROWS)
        assert cells[0].records[0]["fault"] == "x1/0"

    def test_failed_rows_are_skipped(self):
        row = ledger_row(
            "hitec:x", "x", "hitec",
            {"original": [rec("a/0", "redundant")]},
            outcome="crashed",
        )
        assert cell_records_from_ledger_rows([row]) == []


class TestCurves:
    def test_marks_are_first_crossing_times(self):
        cells = cell_records_from_ledger_rows(SAMPLE_ROWS)
        curves = coverage_curves([cells[0]])
        assert len(curves) == 1
        curve = curves[0]
        assert curve.total == 4
        assert curve.detected == 3
        assert curve.targeted == 2
        assert curve.incidental == 1
        assert curve.redundant == 1
        # 3 detections at t=0.1, 0.1, 0.4: 50% needs 2 (t=0.1),
        # 95% needs 3 (t=0.4).
        assert curve.marks[50] == pytest.approx(0.1)
        assert curve.marks[75] == pytest.approx(0.4)
        assert curve.marks[95] == pytest.approx(0.4)

    def test_detectionless_cell_has_no_marks(self):
        row = ledger_row(
            "hitec:x", "x", "hitec",
            {"original": [rec("a/0", "redundant")]},
        )
        curve = coverage_curves(cell_records_from_ledger_rows([row]))[0]
        assert curve.marks == {50: None, 75: None, 90: None, 95: None}

    def test_aggregate_curve_over_multiple_cells(self):
        cells = cell_records_from_ledger_rows(SAMPLE_ROWS)
        curves = coverage_curves(cells)
        assert [c.label for c in curves] == [
            "hitec:dk16.ji.sd original",
            "hitec:dk16.ji.sd retimed",
            "all cells",
        ]
        aggregate = curves[-1]
        assert aggregate.total == 6
        assert aggregate.detected == 4
        assert aggregate.aborted == 1


class TestHardFaults:
    def test_aborters_rank_above_effort_detections(self):
        ranked = rank_hard_faults(
            cell_records_from_ledger_rows(SAMPLE_ROWS)
        )
        assert [(p.circuit, p.fault) for p in ranked] == [
            ("dk16.ji.sd.re", "x1/0"),  # 1 abort, 300 backtracks
            ("dk16.ji.sd", "g2/1"),  # 5 backtracks
            ("dk16.ji.sd", "x1/0"),  # 2 backtracks
            ("dk16.ji.sd.re", "g2/1"),  # 1 backtrack
        ]
        top = ranked[0]
        assert top.aborts == 1
        assert top.abort_reasons == {ABORT_BACKTRACK_LIMIT: 1}
        assert top.cells == ["hitec:dk16.ji.sd"]

    def test_effortless_faults_are_excluded(self):
        row = ledger_row(
            "hitec:x", "x", "hitec",
            {"original": [
                rec("easy/0", "detected", provenance=PROV_FAULT_DROP,
                    detected_by=0),
            ]},
        )
        assert rank_hard_faults(cell_records_from_ledger_rows([row])) == []

    def test_targets_export_is_schema_versioned(self):
        ranked = rank_hard_faults(
            cell_records_from_ledger_rows(SAMPLE_ROWS)
        )
        targets = hard_fault_targets(ranked)
        assert targets["schema"] == TARGETS_SCHEMA_VERSION
        assert targets["generator"] == "repro.obs.coverage"
        assert targets["targets"][0]["fault"] == "x1/0"
        assert targets["targets"][0]["aborts"] == 1
        # Deterministic JSON: round-trips through sort_keys unchanged.
        dumped = json.dumps(targets, indent=2, sort_keys=True)
        assert json.loads(dumped) == targets


class TestRendering:
    def test_report_sections_are_deterministic(self):
        cells = cell_records_from_ledger_rows(SAMPLE_ROWS)
        first = render_report(cells)
        second = render_report(
            cell_records_from_ledger_rows(SAMPLE_ROWS)
        )
        assert first == second
        assert "Coverage & abort forensics" in first
        assert "Coverage vs cumulative effort" in first
        assert "Hard-fault ranking" in first

    def test_forensics_columns(self):
        text = render_abort_forensics(
            cell_records_from_ledger_rows(SAMPLE_ROWS)
        )
        assert "bt-lim" in text
        assert "hitec:dk16.ji.sd retimed" in text

    def test_empty_renders(self):
        assert "no cells" in render_abort_forensics([])
        assert "no cells" in render_coverage_curves([])
        assert "no aborted" in render_hard_faults([])

    def test_hard_fault_limit_elides(self):
        many = [
            ledger_row(
                "hitec:x", "x", "hitec",
                {"original": [
                    rec(f"f{i}/0", "aborted",
                        abort_reason=ABORT_STALL, order=i)
                    for i in range(20)
                ]},
            )
        ]
        text = render_hard_faults(
            rank_hard_faults(cell_records_from_ledger_rows(many))
        )
        assert "... and 5 more" in text


class TestCli:
    def write_run(self, tmp_path, rows):
        run_dir = tmp_path / "runs" / "20260808-000000-abcdef"
        run_dir.mkdir(parents=True)
        with open(run_dir / "ledger.jsonl", "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        return run_dir

    def test_report_from_run_dir(self, tmp_path, capsys):
        run_dir = self.write_run(tmp_path, SAMPLE_ROWS)
        assert report_cli([str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Coverage & abort forensics" in out
        assert "hitec:dk16.ji.sd retimed" in out

    def test_report_newest_run_under_runs_dir(self, tmp_path, capsys):
        self.write_run(tmp_path, SAMPLE_ROWS)
        code = report_cli(["--runs-dir", str(tmp_path / "runs")])
        assert code == 0
        assert "Hard-fault ranking" in capsys.readouterr().out

    def test_output_and_targets_files(self, tmp_path, capsys):
        run_dir = self.write_run(tmp_path, SAMPLE_ROWS)
        report = tmp_path / "coverage-report.txt"
        targets = tmp_path / "hard-faults.json"
        code = report_cli([
            str(run_dir),
            "--output", str(report),
            "--targets", str(targets),
        ])
        assert code == 0
        assert report.read_text() == capsys.readouterr().out
        exported = json.loads(targets.read_text())
        assert exported["schema"] == TARGETS_SCHEMA_VERSION
        assert exported["targets"][0]["circuit"] == "dk16.ji.sd.re"

    def test_lifecycleless_ledger_exits_one(self, tmp_path):
        run_dir = self.write_run(
            tmp_path, [ledger_row("struct:x", "x", None, {})]
        )
        assert report_cli([str(run_dir)]) == 1

    def test_unreadable_source_exits_two(self, tmp_path, capsys):
        assert report_cli([str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


def test_package_imports_before_engines():
    """``import repro.obs.coverage`` must stay importable before any
    engine package loads: the engines import the taxonomy constants
    back from here, so a module-scope atpg import would cycle."""
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import repro.obs.coverage\n"
        "assert 'repro.atpg' not in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": "src"},
        cwd=".",
    )
