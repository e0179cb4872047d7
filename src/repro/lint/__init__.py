"""``repro.lint`` — rule-based netlist DRC (static analysis before ATPG).

The paper's core finding is that structural ATPG wastes its budget on
netlists whose *static* structure hides pathologies: invalid-state-
dominated encodings, uninitializable machines, unobservable registers.
This package catches those defects before any test-generation CPU is
spent:

* a **rule registry** (:data:`REGISTRY`) of analyses with stable IDs —
  ``DRC001``-``DRC005`` basic netlist sanity checks,
  ``DRC101``-``DRC110`` structural screens (combinational cycles,
  constant nets, stuck registers, retiming-unsafe inits, SCOAP
  saturation, encoding-density red flags, depth/fanout budgets);
* structured :class:`Diagnostic` objects with severity
  (:class:`Severity`, ordered), subject, message and fix hints;
* text / JSON reporters and a :class:`Baseline` suppression format;
* pipeline gates (:func:`gate_circuit`) used post-synthesis and
  pre-ATPG by the experiment harness;
* a CLI: ``python -m repro lint <file.blif> [--format json]
  [--fail-on warning]``.
"""

from .severity import Severity
from .core import (
    Diagnostic,
    LintConfig,
    LintContext,
    LintReport,
    REGISTRY,
    Rule,
    RuleRegistry,
    rule,
    run_lint,
)
from . import rules as _rules  # noqa: F401  — populate the registry
from .report import render_json, render_rule_listing, render_text
from .baseline import Baseline, baseline_from_reports
from .gate import GLOBAL_LEDGER, GateMode, LintLedger, gate_circuit

__all__ = [
    "Baseline",
    "Diagnostic",
    "GLOBAL_LEDGER",
    "GateMode",
    "LintConfig",
    "LintContext",
    "LintLedger",
    "LintReport",
    "REGISTRY",
    "Rule",
    "RuleRegistry",
    "Severity",
    "baseline_from_reports",
    "gate_circuit",
    "render_json",
    "render_rule_listing",
    "render_text",
    "rule",
    "run_lint",
]
