"""`python -m repro report`: one CLI for both ledger observatories."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main as repro_main
from tests.obs import test_coverage, test_search

WASTE_ROWS = test_search.SAMPLE_ROWS
LIFECYCLE_ROWS = test_coverage.SAMPLE_ROWS
NEITHER_ROWS = [
    test_search.ledger_row("struct:x", None, "x", {"lint.findings": 1})
]


def write_run(tmp_path, rows):
    run_dir = tmp_path / "runs" / "20260901-000000-abcdef"
    run_dir.mkdir(parents=True)
    with open(run_dir / "ledger.jsonl", "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return run_dir


@pytest.mark.parametrize(
    "rows, code, sections",
    [
        pytest.param(WASTE_ROWS, 0, ("Search waste",), id="waste-only"),
        pytest.param(
            LIFECYCLE_ROWS, 0, ("Coverage & abort",), id="lifecycle-only"
        ),
        pytest.param(NEITHER_ROWS, 1, (), id="neither"),
    ],
)
def test_exit_code(tmp_path, capsys, rows, code, sections):
    """Exit 1 only when the run has neither search counters nor
    lifecycle records; both sections always render, waste first."""
    run_dir = write_run(tmp_path, rows)
    assert repro_main(["report", str(run_dir)]) == code
    out = capsys.readouterr().out
    assert out.index("Search-state observatory") < out.index(
        "Fault-lifecycle & coverage observatory"
    )
    for section in sections:
        assert section in out


@pytest.mark.parametrize(
    "source",
    [
        pytest.param("nope", id="missing"),
        pytest.param("runs", id="directory-without-ledger"),
    ],
)
def test_unreadable_source_exits_two(tmp_path, capsys, source):
    (tmp_path / "runs").mkdir()
    assert repro_main(["report", str(tmp_path / source)]) == 2
    assert "error:" in capsys.readouterr().err



TRACE_SPANS = [
    {"path": "task", "name": "task", "t0": 0.0, "t1": 2.0, "wall_ms": 5.0},
    {"path": "task/atpg.justify", "name": "atpg.justify",
     "t0": 0.5, "t1": 1.5, "wall_ms": 2.0},
]


def write_trace(run_dir, spans=TRACE_SPANS):
    with open(run_dir / "trace.jsonl", "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def write_profiled_config(run_dir):
    (run_dir / "config.json").write_text(
        json.dumps({"fingerprint": "f", "config": {"profile": True}})
    )


def test_help_exits_zero_and_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exit_info:
        repro_main(["report", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "--runs-dir" in out


def test_traced_run_ends_with_rollup(tmp_path, capsys):
    run_dir = write_run(tmp_path, WASTE_ROWS)
    write_profiled_config(run_dir)
    write_trace(run_dir)
    assert repro_main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert out.index("Fault-lifecycle & coverage observatory") < out.index(
        "Hottest span paths"
    )
    assert "task/atpg.justify" in out


def test_trace_only_run_prints_rollup(tmp_path, capsys):
    """A trace is something to report even without a ledger."""
    run_dir = tmp_path / "runs" / "20260901-000000-abcdef"
    run_dir.mkdir(parents=True)
    write_trace(run_dir)
    assert repro_main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "Hottest span paths" in out
    assert "task/atpg.justify" in out
    assert "Search-state observatory" not in out


def test_runs_dir_discovery_finds_newest(tmp_path, capsys):
    older = write_run(tmp_path, WASTE_ROWS)
    newer = older.parent / "20260902-000000-abcdef"
    newer.mkdir()
    (newer / "ledger.jsonl").write_text(
        (older / "ledger.jsonl").read_text()
    )
    write_trace(newer)
    assert repro_main(["report", "--runs-dir", str(older.parent)]) == 0
    out = capsys.readouterr().out
    assert str(newer / "trace.jsonl") in out
    assert "task/atpg.justify" in out


def test_missing_runs_dir_exits_two(tmp_path, capsys):
    runs_dir = tmp_path / "absent"
    assert repro_main(["report", "--runs-dir", str(runs_dir)]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_runs_dir_without_any_run_exits_two(tmp_path, capsys):
    (tmp_path / "runs" / "some-run").mkdir(parents=True)
    runs_dir = tmp_path / "runs"
    assert repro_main(["report", "--runs-dir", str(runs_dir)]) == 2
    assert "no ledger.jsonl" in capsys.readouterr().err


def test_profiled_run_without_trace_exits_two(tmp_path, capsys):
    """CI's check that a ``--profile`` run still writes its trace."""
    run_dir = write_run(tmp_path, WASTE_ROWS)
    write_profiled_config(run_dir)
    assert repro_main(["report", "--runs-dir", str(run_dir.parent)]) == 2
    assert "has no trace.jsonl" in capsys.readouterr().err


def test_torn_trace_exits_two(tmp_path):
    """A writer that died mid-span leaves a torn last line: exit 2 with
    a one-line diagnostic, never a traceback (run as CI runs it)."""
    run_dir = write_run(tmp_path, WASTE_ROWS)
    write_profiled_config(run_dir)
    write_trace(run_dir)
    with open(run_dir / "trace.jsonl", "a") as handle:
        handle.write('{"path": "task/atpg.fa')
    src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
    result = subprocess.run(
        [sys.executable, "-m", "repro", "report", str(run_dir)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        timeout=60,
    )
    assert result.returncode == 2
    assert "unreadable trace" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["report", "{run}"], id="report"),
        pytest.param(["perf", "diff", "{run}", "{run}"], id="perf-diff"),
    ],
)
def test_non_object_ledger_lines_are_skipped(tmp_path, argv):
    """A ledger line that parses to JSON but not to an object (a list,
    a string) is torn, as ``harness.ledger.load_records`` counts it:
    both ledger readers exit cleanly instead of dying on ``row.get``."""
    run_dir = write_run(tmp_path, WASTE_ROWS)
    with open(run_dir / "ledger.jsonl", "a") as handle:
        handle.write("[1, 2]\n")
        handle.write('"str"\n')
    src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
    result = subprocess.run(
        [sys.executable, "-m", "repro"]
        + [arg.format(run=run_dir) for arg in argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
