"""Pipeline gates: post-synthesis and pre-ATPG wiring."""

import dataclasses
import inspect

import pytest

from repro.circuit import CircuitBuilder
from repro.errors import LintError, ReproError
from repro.lint import (
    GateMode,
    LintConfig,
    LintLedger,
    Severity,
    gate_circuit,
    run_lint,
)
from repro.lint import gate as gate_module
from repro.obs import Observability, canonical_lines
from repro.sim.compile import clear_program_cache
from repro.synth.synthesize import synthesize


def broken_circuit():
    """No primary outputs: DRC004, error severity."""
    builder = CircuitBuilder("sealed")
    a = builder.input("a")
    builder.not_(a)
    return builder.build(check=False)


def warny_circuit():
    """One dead input: warnings only."""
    builder = CircuitBuilder("warny")
    a, b = builder.inputs("a", "b")
    builder.output(builder.not_(a, name="out"))
    return builder.build(check=False)


class TestGateMode:
    def test_parse(self):
        assert GateMode.parse("WARN") is GateMode.WARN
        assert GateMode.parse("strict") is GateMode.STRICT
        assert GateMode.parse(GateMode.OFF) is GateMode.OFF

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown lint gate mode"):
            GateMode.parse("pedantic")


class TestGateCircuit:
    def test_off_skips_analysis(self):
        assert gate_circuit(broken_circuit(), mode="off", ledger=None) is None

    def test_warn_records_without_raising(self):
        ledger = LintLedger()
        report = gate_circuit(
            broken_circuit(), mode="warn", stage="t:sealed", ledger=ledger
        )
        assert report.errors
        assert len(ledger) == 1
        assert ledger.entries[0].stage == "t:sealed"

    def test_strict_raises_on_error(self):
        with pytest.raises(LintError, match="DRC004"):
            gate_circuit(broken_circuit(), mode="strict", ledger=None)

    def test_lint_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            gate_circuit(broken_circuit(), mode="strict", ledger=None)

    def test_strict_passes_mere_warnings_by_default(self):
        report = gate_circuit(warny_circuit(), mode="strict", ledger=None)
        assert report.warnings and not report.errors

    def test_strict_fail_on_warning(self):
        config = LintConfig(fail_on=Severity.WARNING)
        with pytest.raises(LintError, match="fail-on=warning"):
            gate_circuit(
                warny_circuit(), mode="strict", config=config, ledger=None
            )


class TestLedger:
    def test_same_stage_replaces(self):
        ledger = LintLedger()
        first = gate_circuit(warny_circuit(), stage="s", ledger=ledger)
        second = gate_circuit(warny_circuit(), stage="s", ledger=ledger)
        assert len(ledger) == 1
        assert ledger.entries[0].report is second
        assert first is not second

    def test_summary_lists_stages_and_totals(self):
        ledger = LintLedger()
        gate_circuit(warny_circuit(), stage="pre-atpg:warny", ledger=ledger)
        summary = ledger.render_summary(title="DRC gate [warn]")
        assert "DRC gate [warn]: 1 circuit(s) analyzed" in summary
        assert "pre-atpg:warny" in summary
        assert "DRC002" in summary  # individual findings shown

    def test_empty_summary(self):
        assert "no circuits gated" in LintLedger().render_summary()


class TestPipelineWiring:
    def test_synthesize_gates_warn_only_by_default(self):
        signature = inspect.signature(synthesize)
        assert signature.parameters["lint_mode"].default is GateMode.WARN

    def test_synthesized_circuit_passes_gate(self, dk16_rugged):
        # The session fixture ran synthesize() with the default warn
        # gate; a clean strict re-gate proves the product is DRC-clean.
        gate_circuit(dk16_rugged.circuit, mode="strict", ledger=None)

    def test_pre_atpg_strict_gate_aborts_run(self):
        from repro.harness.atpg_tables import run_engine_on_circuit
        from repro.harness.config import HarnessConfig

        config = dataclasses.replace(
            HarnessConfig.smoke(), lint_mode="strict", lint_fail_on="error"
        )
        with pytest.raises(LintError, match="pre-atpg:sealed"):
            run_engine_on_circuit(broken_circuit(), "simbased", config)


def many_dead_inputs_circuit():
    """Three disconnected inputs: one rule emitting several findings."""
    builder = CircuitBuilder("deadins")
    a = builder.input("a")
    builder.inputs("b", "c", "d")
    builder.output(builder.not_(a, name="out"))
    return builder.build(check=False)


class TestReportMemo:
    """Gates on one circuit version and config share one LintReport."""

    @pytest.fixture(autouse=True)
    def cold_memos(self):
        clear_program_cache()

    def count_runs(self, monkeypatch):
        runs = []

        def counting(*args, **kwargs):
            runs.append(args[0])
            return run_lint(*args, **kwargs)

        monkeypatch.setattr(gate_module, "run_lint", counting)
        return runs

    def test_hit_replays_observability(self, monkeypatch):
        runs = self.count_runs(monkeypatch)
        config = LintConfig(max_findings_per_rule=1)
        circuit = many_dead_inputs_circuit()

        def two_gates(clear_between):
            clear_program_cache()
            obs = Observability.recording()
            ledger = LintLedger()
            reports = []
            for stage in ("post-synthesis:x", "pre-atpg:x"):
                reports.append(
                    gate_circuit(
                        circuit, stage=stage, config=config, ledger=ledger, obs=obs
                    )
                )
                if clear_between:
                    clear_program_cache()
            assert [entry.stage for entry in ledger.entries] == [
                "post-synthesis:x",
                "pre-atpg:x",
            ]
            return obs, reports

        cached_obs, cached = two_gates(clear_between=False)
        assert len(runs) == 1 and cached[0] is cached[1]
        uncached_obs, uncached = two_gates(clear_between=True)
        assert len(runs) == 3 and uncached[0] is not uncached[1]
        assert canonical_lines(cached_obs.trace.export()) == canonical_lines(
            uncached_obs.trace.export()
        )
        # DRC005 emitted three findings: one stored plus a truncation note.
        for report in cached + uncached:
            drc005 = [d for d in report.diagnostics if d.rule_id == "DRC005"]
            assert len(drc005) == 2
            assert "2 further finding(s) truncated" in drc005[1].message

    def test_strict_raises_on_a_hit(self, monkeypatch):
        runs = self.count_runs(monkeypatch)
        circuit = broken_circuit()
        gate_circuit(circuit, mode="warn", ledger=None)
        with pytest.raises(LintError, match="DRC004"):
            gate_circuit(circuit, mode="strict", ledger=None)
        assert len(runs) == 1

    def test_config_values_circuit_version_and_clears_key_the_memo(
        self, monkeypatch
    ):
        runs = self.count_runs(monkeypatch)
        circuit = warny_circuit()
        gate_circuit(circuit, ledger=None)
        gate_circuit(circuit, config=LintConfig(), ledger=None)
        gate_circuit(circuit, config=LintConfig(disabled=frozenset()), ledger=None)
        assert len(runs) == 1
        gate_circuit(circuit, config=LintConfig(max_depth=3), ledger=None)
        assert len(runs) == 2
        circuit.add_output("a")
        gate_circuit(circuit, ledger=None)
        assert len(runs) == 3
        clear_program_cache()
        gate_circuit(circuit, ledger=None)
        assert len(runs) == 4
