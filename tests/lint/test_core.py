"""Engine core: registry, config, runner semantics, report queries."""

import pytest

from repro.circuit import CircuitBuilder
from repro.lint import (
    Diagnostic,
    LintConfig,
    LintReport,
    REGISTRY,
    RuleRegistry,
    Severity,
    rule,
    run_lint,
)


def dead_gates_circuit(num_dead=3):
    """a,b feed the output; ``num_dead`` extra gates feed nothing."""
    builder = CircuitBuilder("deadwood")
    a, b = builder.inputs("a", "b")
    out = builder.and_(a, b, name="out")
    for i in range(num_dead):
        builder.not_(a, name=f"dead{i}")
    builder.output(out)
    return builder.build()


class TestRegistry:
    def test_all_rules_registered(self):
        ids = [r.rule_id for r in REGISTRY.rules()]
        assert ids == sorted(ids)
        assert len(ids) >= 10  # acceptance criterion: >= 10 rules
        for expected in (
            "DRC001", "DRC002", "DRC003", "DRC004", "DRC005",
            "DRC101", "DRC102", "DRC103", "DRC104", "DRC105",
            "DRC106", "DRC107", "DRC108",
        ):
            assert expected in REGISTRY

    def test_legacy_subset(self):
        legacy = [r.rule_id for r in REGISTRY.rules() if r.legacy]
        assert legacy == ["DRC001", "DRC002", "DRC003", "DRC004", "DRC005"]

    def test_descriptions_and_categories_populated(self):
        for entry in REGISTRY.rules():
            assert entry.description, entry.rule_id
            assert entry.category, entry.rule_id

    def test_duplicate_id_rejected(self):
        registry = RuleRegistry()

        @rule("DRC900", name="once", severity=Severity.NOTE,
              category="test", registry=registry)
        def first(context):
            return []

        with pytest.raises(ValueError, match="duplicate"):
            @rule("DRC900", name="twice", severity=Severity.NOTE,
                  category="test", registry=registry)
            def second(context):
                return []

    def test_unknown_id_lookup(self):
        with pytest.raises(KeyError, match="DRC999"):
            REGISTRY.get("DRC999")


class TestConfig:
    def test_disable(self, two_bit_counter):
        report = run_lint(
            dead_gates_circuit(), LintConfig(disabled=frozenset({"DRC002"}))
        )
        assert "DRC002" not in report.rules_run
        assert not [d for d in report if d.rule_id == "DRC002"]

    def test_only(self):
        report = run_lint(
            dead_gates_circuit(), LintConfig(only=frozenset({"DRC002"}))
        )
        assert report.rules_run == ("DRC002",)
        assert all(d.rule_id == "DRC002" for d in report)

    def test_severity_override(self):
        config = LintConfig(severity_overrides={"DRC002": Severity.ERROR})
        report = run_lint(dead_gates_circuit(), config)
        findings = [d for d in report if d.rule_id == "DRC002"]
        assert findings and all(d.severity is Severity.ERROR for d in findings)

    def test_from_dict_round_trip(self):
        config = LintConfig.from_dict(
            {
                "disabled": ["DRC105"],
                "severity_overrides": {"DRC002": "error"},
                "fail_on": "warning",
                "max_depth": 10,
            }
        )
        assert "DRC105" in config.disabled
        assert config.severity_overrides["DRC002"] is Severity.ERROR
        assert config.fail_on is Severity.WARNING
        assert config.max_depth == 10

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown lint config"):
            LintConfig.from_dict({"max_deepness": 3})


class TestRunner:
    def test_clean_circuit_is_clean(self, two_bit_counter):
        report = run_lint(two_bit_counter)
        assert len(report) == 0
        assert report.worst() is None
        assert report.exit_code() == 0
        assert len(report.rules_run) >= 10

    def test_truncation_note(self):
        report = run_lint(
            dead_gates_circuit(num_dead=4),
            LintConfig(max_findings_per_rule=2),
        )
        stored = [d for d in report if d.rule_id == "DRC002"
                  and d.severity is not Severity.NOTE]
        assert len(stored) == 2
        notes = [d for d in report if d.severity is Severity.NOTE
                 and d.rule_id == "DRC002"]
        assert len(notes) == 1
        assert "2 further finding(s) truncated" in notes[0].message

    def test_crashing_rule_becomes_error_diagnostic(self, half_adder):
        registry = RuleRegistry()

        @rule("DRC901", name="bomb", severity=Severity.NOTE,
              category="test", registry=registry)
        def bomb(context):
            raise RuntimeError("kaboom")
            yield  # pragma: no cover

        report = run_lint(half_adder, registry=registry)
        assert len(report.errors) == 1
        assert "kaboom" in report.errors[0].message

    def test_empty_registry_runs_no_rules(self):
        # An empty registry is falsy (len 0) but still the one asked for.
        builder = CircuitBuilder("inverter")
        (a,) = builder.inputs("a")
        builder.output(builder.not_(a, name="out"))
        report = run_lint(builder.build(), registry=RuleRegistry())
        assert report.rules_run == ()
        assert report.diagnostics == []


class TestReport:
    def _report(self):
        diags = [
            Diagnostic("DRC101", Severity.ERROR, "g1", "loop"),
            Diagnostic("DRC002", Severity.WARNING, "g2", "dead"),
            Diagnostic("DRC002", Severity.NOTE, "c", "truncated"),
        ]
        return LintReport(
            circuit_name="c", diagnostics=diags, rules_run=("DRC002", "DRC101")
        )

    def test_severity_queries(self):
        report = self._report()
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert report.worst() is Severity.ERROR
        assert report.counts() == {"note": 1, "warning": 1, "error": 1}
        assert len(report.at_or_above(Severity.WARNING)) == 2

    def test_exit_codes(self):
        report = self._report()
        assert report.exit_code(Severity.ERROR) == 1
        assert report.exit_code("note") == 1
        clean = LintReport(circuit_name="c", diagnostics=[], rules_run=())
        assert clean.exit_code("note") == 0

    def test_without_suppresses_by_fingerprint(self):
        report = self._report()
        fingerprint = report.diagnostics[0].fingerprint("c")
        assert fingerprint == "c DRC101 g1"
        filtered = report.without([fingerprint], scope="c")
        assert len(filtered) == 2
        assert filtered.suppressed == 1
        assert not filtered.errors

    def test_diagnostic_str_format(self):
        diag = Diagnostic(
            "DRC102", Severity.WARNING, "g5", "stuck at 0", fix_hint="sweep"
        )
        assert str(diag) == "DRC102 [warning] g5: stuck at 0 (hint: sweep)"

    def test_to_dict_shape(self):
        data = self._report().to_dict()
        assert data["circuit"] == "c"
        assert data["counts"]["error"] == 1
        assert data["diagnostics"][0]["rule"] == "DRC101"
