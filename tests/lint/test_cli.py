"""CLI contract: exit codes, formats, config flags, baseline workflow."""

import json

import pytest

from repro.circuit import CircuitBuilder
from repro.circuit.blif import save_blif
from repro.lint.cli import main


@pytest.fixture
def clean_blif(tmp_path, half_adder):
    path = str(tmp_path / "clean.blif")
    save_blif(half_adder, path)
    return path


@pytest.fixture
def warning_blif(tmp_path):
    """Warnings only: input b is dead (DRC002), disconnected (DRC005)
    and an untestable fault site (DRC109)."""
    builder = CircuitBuilder("warny")
    a, b = builder.inputs("a", "b")
    builder.output(builder.not_(a, name="out"))
    path = str(tmp_path / "warny.blif")
    save_blif(builder.build(check=False), path)
    return path


class TestExitCodes:
    def test_clean_circuit_exits_zero(self, clean_blif, capsys):
        assert main([clean_blif]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_warnings_pass_default_threshold(self, warning_blif):
        assert main([warning_blif]) == 0

    def test_fail_on_warning(self, warning_blif):
        assert main([warning_blif, "--fail-on", "warning"]) == 1

    def test_severity_override_promotes_to_failure(self, warning_blif):
        assert main([warning_blif, "--severity", "DRC002=error"]) == 1

    def test_disable_silences_rule(self, warning_blif):
        code = main(
            [warning_blif, "--fail-on", "warning",
             "--disable", "DRC002", "--disable", "DRC005",
             "--disable", "DRC109"]
        )
        assert code == 0

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "ghost.blif")]) == 2

    def test_no_files_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_rule_is_usage_error(self, clean_blif):
        assert main([clean_blif, "--disable", "DRC999"]) == 2
        assert main([clean_blif, "--severity", "DRC999=error"]) == 2
        assert main([clean_blif, "--severity", "DRC002"]) == 2


class TestFormats:
    def test_text_report(self, warning_blif, capsys):
        main([warning_blif])
        out = capsys.readouterr().out
        assert "== warny:" in out
        assert "DRC002" in out and "DRC005" in out

    def test_json_report_parses(self, warning_blif, capsys):
        main([warning_blif, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        (report,) = payload["reports"]
        assert report["circuit"] == "warny"
        assert report["counts"]["warning"] >= 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DRC001" in out and "DRC108" in out


class TestBaselineWorkflow:
    def test_update_then_suppress(self, warning_blif, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.txt")

        # Without a baseline the warnings fail a warning threshold.
        assert main([warning_blif, "--fail-on", "warning"]) == 1

        # Record the accepted findings...
        assert main(
            [warning_blif, "--baseline", baseline, "--update-baseline"]
        ) == 0
        content = open(baseline).read()
        assert "warny DRC002 b" in content

        # ...and the same run now passes, reporting the suppression.
        capsys.readouterr()
        assert main(
            [warning_blif, "--fail-on", "warning", "--baseline", baseline]
        ) == 0
        assert "baseline-suppressed" in capsys.readouterr().out

    def test_update_requires_baseline_path(self, warning_blif):
        assert main([warning_blif, "--update-baseline"]) == 2
