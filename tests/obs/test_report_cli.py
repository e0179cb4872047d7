"""`python -m repro report`: one CLI for both ledger observatories."""

import json

import pytest

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

