"""Profiling mode: trace determinism across --jobs, reporter quiet mode.

The acceptance contract for ``--profile``: the assembled
``trace.jsonl`` span tree (every field except the ``wall*`` metadata)
is a pure function of the config, so a serial run and a parallel run
of the same deterministic config produce byte-identical canonical
lines.
"""

import dataclasses
import io
import json
import os

import pytest

from repro.atpg import EffortBudget
from repro.harness import HarnessConfig, run_all
from repro.obs import canonical_lines, read_trace_jsonl

PAIR = "dk16.ji.sd"

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


def profile_config(runs_dir, **overrides):
    base = HarnessConfig(
        budget=LEAN_BUDGET,
        max_faults=40,
        circuits=(PAIR,),
        tables=("table2", "table3", "table4"),
        runs_dir=str(runs_dir),
        profile=True,
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def trace_path(runs_dir):
    (run_id,) = os.listdir(runs_dir)
    return os.path.join(str(runs_dir), run_id, "trace.jsonl")


class TestTraceDeterminism:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        from repro.harness import suite

        suite.clear_caches()
        serial_dir = tmp_path_factory.mktemp("profile-serial")
        parallel_dir = tmp_path_factory.mktemp("profile-parallel")
        run_all(profile_config(serial_dir), jobs=1)
        run_all(profile_config(parallel_dir), jobs=2)
        return (
            read_trace_jsonl(trace_path(serial_dir)),
            read_trace_jsonl(trace_path(parallel_dir)),
        )

    def test_trace_jsonl_written(self, traces):
        serial, parallel = traces
        assert serial and parallel

    def test_canonical_trace_identical_across_jobs(self, traces):
        serial, parallel = traces
        assert canonical_lines(serial) == canonical_lines(parallel)

    def test_spans_cover_every_engine(self, traces):
        serial, _ = traces
        engines = {
            span["attrs"].get("engine")
            for span in serial
            if span["name"] == "atpg.run"
        }
        assert engines == {"hitec", "sest", "simbased"}

    def test_spans_are_task_tagged_with_virtual_time(self, traces):
        serial, _ = traces
        assert all("task" in span for span in serial)
        run_spans = [s for s in serial if s["name"] == "atpg.run"]
        assert all(s["t1"] >= s["t0"] == 0.0 for s in run_spans)

    def test_wall_time_is_metadata_only(self, traces):
        serial, _ = traces
        for span in serial:
            fingerprinted = {
                k for k in span if not k.startswith("wall")
            }
            assert fingerprinted <= {
                "seq", "parent", "name", "path", "attrs", "t0", "t1",
                "task",
            }


class TestProfileKnob:
    def test_profile_is_not_a_science_field(self):
        """Profiled and unprofiled runs share a fingerprint, so either
        can resume a ledger the other wrote."""
        config = profile_config("unused")
        off = dataclasses.replace(config, profile=False)
        assert config.fingerprint() == off.fingerprint()
        assert "profile" not in HarnessConfig.SCIENCE_FIELDS

    def test_quick_preset_uses_virtual_clock(self):
        config = HarnessConfig.quick()
        assert config.budget.deterministic_clock is True
        smoke = HarnessConfig.smoke()
        assert config.circuits == smoke.circuits

    def test_unprofiled_run_writes_no_trace(self, tmp_path):
        from repro.harness import suite

        suite.clear_caches()
        config = profile_config(
            tmp_path, profile=False, tables=("table2",)
        )
        run_all(config, jobs=1)
        assert not os.path.exists(trace_path(tmp_path))

    def test_metrics_ride_even_without_profile(self, tmp_path):
        from repro.harness import load_records, suite

        suite.clear_caches()
        config = profile_config(
            tmp_path, profile=False, tables=("table2",)
        )
        run_all(config, jobs=1)
        (run_id,) = os.listdir(tmp_path)
        ledger = os.path.join(str(tmp_path), run_id, "ledger.jsonl")
        records, _ = load_records(ledger)
        (row,) = [r for r in records if r.kind == "hitec_pair"]
        for side in ("original", "retimed"):
            assert row.counters[side]["atpg.faults_total"] > 0
        assert "trace" not in row.payload


class TestReporterOutput:
    def run_to_stream(self, tmp_path, **kwargs):
        from repro.harness import suite

        suite.clear_caches()
        stream = io.StringIO()
        config = profile_config(tmp_path, tables=("table2",))
        run_all(config, jobs=1, stream=stream, **kwargs)
        return stream.getvalue()

    def test_profile_prints_rollup(self, tmp_path):
        output = self.run_to_stream(tmp_path)
        assert "hottest span paths" in output
        assert "task/atpg.run" in output
        assert "[runner]" in output  # progress lines present

    def test_quiet_suppresses_progress_keeps_report(self, tmp_path):
        output = self.run_to_stream(tmp_path, quiet=True)
        assert "[runner]" not in output
        assert "Table 2" in output
        assert "hottest span paths" in output
