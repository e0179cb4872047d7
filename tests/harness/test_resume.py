"""Checkpoint/resume: an interrupted run must be completable.

A SIGKILL mid-run leaves a ledger with some complete rows and possibly
one torn (partially written) final line.  Resuming must skip the
durable cells, tolerate the torn line, and produce a report identical
to an uninterrupted run.
"""

import dataclasses
import json
import os
from collections import Counter

import pytest

from repro.errors import ReproError
from repro.harness import assemble_report, load_records, run_all
from repro.harness.runner import run_experiment

from .test_runner import (
    lean_config,
    strip_wall_time,
    struct_only_config,
)


def small_config(runs_dir, **overrides):
    return lean_config(
        runs_dir,
        circuits=("dk16.ji.sd",),
        tables=("table1", "table2", "table5", "table6", "table8"),
        **overrides,
    )


def complete_run(config):
    """Run to completion; returns (run_id, ledger_path, report_text)."""
    report = run_all(config, jobs=1)
    (run_id,) = os.listdir(config.runs_dir)
    ledger = os.path.join(config.runs_dir, run_id, "ledger.jsonl")
    return run_id, ledger, report


def truncate_ledger(ledger, keep, torn_tail=None):
    """Keep the first ``keep`` lines, optionally appending a torn
    partial line (no trailing newline) — the on-disk state a SIGKILL
    mid-append leaves behind."""
    with open(ledger) as handle:
        lines = handle.readlines()
    assert keep < len(lines)
    with open(ledger, "w") as handle:
        handle.writelines(lines[:keep])
        if torn_tail is not None:
            handle.write(torn_tail)
    return [line for line in lines[:keep]]


class TestResume:
    def test_resume_skips_completed_and_matches_scratch(self, tmp_path):
        config = small_config(tmp_path / "interrupted")
        run_id, ledger, _ = complete_run(config)
        kept = truncate_ledger(ledger, keep=2)

        progress = []
        resumed = run_experiment(
            dataclasses.replace(config, resume=run_id),
            emit=progress.append,
        )
        assert any("2 cell(s) already complete" in line for line in progress)
        records, torn = load_records(ledger)
        assert torn == 0
        # The kept cells were skipped, the missing one recomputed, and
        # no cell ran twice.
        with open(ledger) as handle:
            assert handle.readlines()[:2] == kept
        assert Counter(r.key for r in records) == {
            "table1": 1,
            "hitec:dk16.ji.sd": 1,
            "struct:dk16.ji.sd": 1,
        }

        scratch_config = small_config(tmp_path / "scratch")
        _, _, scratch_report = complete_run(scratch_config)
        resumed_report = assemble_report(config, resumed.records)
        assert strip_wall_time(resumed_report) == strip_wall_time(
            scratch_report
        )

    def test_resume_tolerates_torn_final_line(self, tmp_path):
        config = small_config(tmp_path)
        run_id, ledger, report = complete_run(config)
        truncate_ledger(ledger, keep=2, torn_tail='{"v":1,"key":"struct:dk')
        progress = []
        resumed = run_experiment(
            dataclasses.replace(config, resume=run_id),
            emit=progress.append,
        )
        assert any("1 torn ledger line" in line for line in progress)
        # The torn line stays in the file (terminated, still counted as
        # torn) but must not corrupt the rows appended after it.
        assert resumed.torn_lines == 1
        assert strip_wall_time(assemble_report(config, resumed.records)) == (
            strip_wall_time(report)
        )

    def test_resume_of_complete_run_recomputes_nothing(self, tmp_path):
        config = small_config(tmp_path)
        run_id, ledger, report = complete_run(config)
        before = os.path.getsize(ledger)
        resumed = run_experiment(dataclasses.replace(config, resume=run_id))
        assert os.path.getsize(ledger) == before
        assert strip_wall_time(assemble_report(config, resumed.records)) == (
            strip_wall_time(report)
        )

    def test_resume_refuses_mismatched_config(self, tmp_path):
        config = small_config(tmp_path)
        run_id, _, _ = complete_run(config)
        changed = dataclasses.replace(
            config, max_faults=config.max_faults + 1, resume=run_id
        )
        with pytest.raises(ReproError, match="refusing to resume"):
            run_experiment(changed)

    def test_resume_never_reads_an_earlier_result_file(self, tmp_path):
        """A worker result file left in the run directory by an earlier
        invocation is never taken as the resumed attempt's result."""
        config = struct_only_config(
            tmp_path,
            jobs=2,
            task_hook="tests.harness.hooks:hang_struct",
            task_timeout_seconds=2.0,
            max_task_retries=0,
        )
        first = run_experiment(config)
        stale = os.path.join(
            first.run_dir, "results", "struct_dk16.ji.sd.0.json"
        )
        with open(stale, "w") as handle:
            json.dump({"ok": True, "payload": {"tables": {}}}, handle)

        resumed = run_experiment(
            dataclasses.replace(config, resume=first.run_id)
        )
        assert [r.outcome for r in resumed.records] == [
            "timeout", "quarantined", "timeout", "quarantined",
        ]

    def test_cli_parses_resume_flags(self, tmp_path):
        from repro.harness.cli import build_parser

        args = build_parser().parse_args(
            ["smoke", "--resume", "20260806-000000-abc123",
             "--runs-dir", str(tmp_path), "--jobs", "4",
             "--task-timeout", "30", "--tables", "table2,table6"]
        )
        assert args.preset == "smoke"
        assert args.resume == "20260806-000000-abc123"
        assert args.runs_dir == str(tmp_path)
        assert args.jobs == 4
        assert args.task_timeout == 30.0
        assert args.tables == "table2,table6"
