"""DRC engine core: diagnostics, the rule registry, config and runner.

The analyzer is a registry of small pure functions over
:class:`repro.circuit.netlist.Circuit`.  Each rule owns a stable ID
(``DRC0xx`` for the basic netlist sanity checks, ``DRC1xx`` for the
structural analyses), a default severity, and a category;
a :class:`LintConfig` can disable rules or override their severity
without touching the rule code.  Running the registry yields a
:class:`LintReport` of :class:`Diagnostic` objects which the reporters
in :mod:`repro.lint.report` render as text or JSON.

Rules receive a :class:`LintContext` so expensive intermediate results
(the ternary fixpoint, SCOAP measures, levels) are computed at most once
per run even when several rules consume them.
"""

from __future__ import annotations

import dataclasses
import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..circuit.netlist import Circuit
from ..obs import Tracer
from .severity import Severity


@dataclasses.dataclass
class Diagnostic:
    """One finding: rule ID, severity, the subject node/feature, message
    and an optional machine-actionable fix hint."""

    rule_id: str
    severity: Severity
    subject: str
    message: str
    category: str = ""
    fix_hint: Optional[str] = None

    def __str__(self) -> str:
        rendered = f"{self.rule_id} [{self.severity}] {self.subject}: {self.message}"
        if self.fix_hint:
            rendered += f" (hint: {self.fix_hint})"
        return rendered

    def fingerprint(self, scope: str = "") -> str:
        """Stable identity for baseline suppression.

        Messages carry counts and values that drift across synthesis
        tweaks, so the fingerprint is (scope, rule, subject) only.
        """
        return f"{scope or '-'} {self.rule_id} {self.subject}"

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "category": self.category,
            "subject": self.subject,
            "message": self.message,
        }
        if self.fix_hint:
            data["fix_hint"] = self.fix_hint
        return data


# A rule check yields (subject, message) or (subject, message, fix_hint);
# the runner stamps rule ID, category and (possibly overridden) severity.
Finding = Tuple[str, ...]
CheckFunction = Callable[["LintContext"], Iterable[Finding]]


@dataclasses.dataclass(frozen=True)
class Rule:
    """One registered analysis."""

    rule_id: str
    name: str  # kebab-case slug, e.g. "combinational-cycle"
    severity: Severity  # default; LintConfig may override
    category: str
    description: str
    check: CheckFunction
    legacy: bool = False  # DRC001-DRC005; --list-rules prints [ported]
    retiming_invariant: bool = False  # diagnostics stable under retiming


class RuleRegistry:
    """Ordered collection of rules, keyed by stable ID."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if rule.rule_id in self._rules:
            raise ValueError(f"duplicate rule ID {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule
        return rule

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"no rule with ID {rule_id!r}") from None

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def rules(self) -> List[Rule]:
        """All rules, sorted by ID (stable run order)."""
        return [self._rules[k] for k in sorted(self._rules)]


#: The process-wide registry that :mod:`repro.lint.rules` populates.
REGISTRY = RuleRegistry()


def rule(
    rule_id: str,
    *,
    name: str,
    severity: Severity,
    category: str,
    legacy: bool = False,
    retiming_invariant: bool = False,
    registry: Optional[RuleRegistry] = None,
) -> Callable[[CheckFunction], CheckFunction]:
    """Decorator registering a check function as a rule.

    The function's docstring (first line) becomes the rule description.
    """

    def decorate(check: CheckFunction) -> CheckFunction:
        description = (check.__doc__ or "").strip().splitlines()
        # `registry or REGISTRY` would be wrong: an empty RuleRegistry
        # is falsy (len 0) and would silently leak into the global one.
        target = REGISTRY if registry is None else registry
        target.register(
            Rule(
                rule_id=rule_id,
                name=name,
                severity=severity,
                category=category,
                description=description[0] if description else "",
                check=check,
                legacy=legacy,
                retiming_invariant=retiming_invariant,
            )
        )
        return check

    return decorate


@dataclasses.dataclass
class LintConfig:
    """Which rules run, at what severity, with what structural budgets."""

    disabled: FrozenSet[str] = frozenset()
    only: Optional[FrozenSet[str]] = None  # restrict to these IDs if set
    severity_overrides: Mapping[str, Severity] = dataclasses.field(
        default_factory=dict
    )
    fail_on: Severity = Severity.ERROR
    max_findings_per_rule: int = 25
    # Structural budgets (DRC107/DRC108).  The fanout budget scales with
    # circuit size — two-level-style netlists legitimately fan literal
    # drivers out to hundreds of cubes — with ``max_fanout`` as the
    # absolute floor: budget = max(max_fanout, fraction * #nodes).
    max_depth: int = 64
    max_fanout: int = 64
    max_fanout_fraction: float = 0.25
    # Density red flag (DRC106): minimum provably-wasted state bits for
    # the structural bound, plus the exact-reachability screen — BDD
    # traversal runs when #DFF <= density_dff_limit and flags densities
    # at or below min_density (the paper's low-density pathology).
    min_wasted_state_bits: int = 2
    density_dff_limit: int = 28
    min_density: float = 0.05
    # SCOAP fixpoint iteration cap (DRC105).
    scoap_iterations: int = 60
    # Checkpoint-ratio advisory band (DRC110): checkpoints (PIs +
    # fanout stems + DFF outputs) over fault sites.  The Table 2 suite
    # spans [0.013, 0.221]; ratios outside the band mean the checkpoint
    # reduction behaves anomalously — near-zero suggests a degenerate
    # fanout-free chain, high ratios mean collapsing buys almost
    # nothing.
    min_checkpoint_ratio: float = 0.005
    max_checkpoint_ratio: float = 0.5

    def is_enabled(self, rule: Rule) -> bool:
        if rule.rule_id in self.disabled:
            return False
        if self.only is not None and rule.rule_id not in self.only:
            return False
        return True

    def effective_severity(self, rule: Rule) -> Severity:
        override = self.severity_overrides.get(rule.rule_id)
        return Severity.parse(override) if override is not None else rule.severity

    def with_overrides(self, **changes: object) -> "LintConfig":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LintConfig":
        """Build a config from a plain dict (the CLI's --config file)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown lint config keys: {sorted(unknown)}")
        kwargs: Dict[str, object] = dict(data)
        if "disabled" in kwargs:
            kwargs["disabled"] = frozenset(kwargs["disabled"])  # type: ignore[arg-type]
        if "only" in kwargs and kwargs["only"] is not None:
            kwargs["only"] = frozenset(kwargs["only"])  # type: ignore[arg-type]
        if "severity_overrides" in kwargs:
            kwargs["severity_overrides"] = {
                rule_id: Severity.parse(sev)  # type: ignore[arg-type]
                for rule_id, sev in dict(kwargs["severity_overrides"]).items()  # type: ignore[call-overload]
            }
        if "fail_on" in kwargs:
            kwargs["fail_on"] = Severity.parse(kwargs["fail_on"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


class LintContext:
    """Per-run scratch space shared by the rules.

    Caches analyses that several rules consume (ternary fixpoint, SCOAP,
    levelization) so each is computed at most once per :func:`run_lint`.
    """

    def __init__(self, circuit: Circuit, config: LintConfig):
        self.circuit = circuit
        self.config = config
        self._cache: Dict[str, object] = {}

    def cached(self, key: str, compute: Callable[[], object]) -> object:
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


@dataclasses.dataclass
class LintReport:
    """Outcome of one analyzer run over one circuit."""

    circuit_name: str
    diagnostics: List[Diagnostic]
    rules_run: Tuple[str, ...]
    suppressed: int = 0
    elapsed_seconds: float = 0.0

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    def counts(self) -> Dict[str, int]:
        totals = {str(s): 0 for s in Severity}
        for diag in self.diagnostics:
            totals[str(diag.severity)] += 1
        return totals

    def worst(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def at_or_above(self, threshold: Severity) -> List[Diagnostic]:
        threshold = Severity.parse(threshold)
        return [d for d in self.diagnostics if d.severity >= threshold]

    def exit_code(self, fail_on: Optional[Severity] = None) -> int:
        """0 when no finding reaches the threshold, 1 otherwise."""
        threshold = Severity.parse(fail_on) if fail_on is not None else Severity.ERROR
        return 1 if self.at_or_above(threshold) else 0

    def without(self, fingerprints: Iterable[str], scope: str = "") -> "LintReport":
        """A copy with baseline-suppressed diagnostics removed."""
        suppress = set(fingerprints)
        kept = [
            d
            for d in self.diagnostics
            if d.fingerprint(scope or self.circuit_name) not in suppress
        ]
        return dataclasses.replace(
            self,
            diagnostics=kept,
            suppressed=self.suppressed + len(self.diagnostics) - len(kept),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit_name,
            "rules_run": list(self.rules_run),
            "counts": self.counts(),
            "suppressed": self.suppressed,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def _normalize(finding: object) -> Tuple[str, str, Optional[str]]:
    if isinstance(finding, Diagnostic):
        return finding.subject, finding.message, finding.fix_hint
    if isinstance(finding, tuple) and len(finding) in (2, 3):
        subject, message = finding[0], finding[1]
        hint = finding[2] if len(finding) == 3 else None
        return str(subject), str(message), hint
    raise TypeError(
        f"rule yielded {finding!r}; expected (subject, message[, fix_hint])"
    )


def run_lint(
    circuit: Circuit,
    config: Optional[LintConfig] = None,
    registry: Optional[RuleRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> LintReport:
    """Run every enabled rule over ``circuit`` and collect diagnostics.

    Every rule of the registry that ``config`` enables runs in ID order.
    A crashing rule is reported as an error-severity diagnostic rather
    than aborting the run — broken circuits are exactly what the
    analyzer must survive.

    ``tracer`` receives one ``lint.rule`` trace span per rule (wall
    timing as span metadata).
    """
    from . import rules as _builtin_rules  # noqa: F401  (populate REGISTRY)

    config = config or LintConfig()
    registry = registry if registry is not None else REGISTRY
    tracer = tracer if tracer is not None else Tracer()
    context = LintContext(circuit, config)
    diagnostics: List[Diagnostic] = []
    ran: List[str] = []
    start = time.perf_counter()

    for rule_entry in registry.rules():
        if not config.is_enabled(rule_entry):
            continue
        ran.append(rule_entry.rule_id)
        severity = config.effective_severity(rule_entry)
        emitted = 0
        with tracer.span(
            "lint.rule", rule=rule_entry.rule_id, circuit=circuit.name
        ):
            try:
                for finding in rule_entry.check(context):
                    subject, message, hint = _normalize(finding)
                    emitted += 1
                    if emitted > config.max_findings_per_rule:
                        continue  # keep counting, stop storing
                    diagnostics.append(
                        Diagnostic(
                            rule_id=rule_entry.rule_id,
                            severity=severity,
                            subject=subject,
                            message=message,
                            category=rule_entry.category,
                            fix_hint=hint,
                        )
                    )
            except Exception as exc:  # pragma: no cover - defensive
                diagnostics.append(
                    Diagnostic(
                        rule_id=rule_entry.rule_id,
                        severity=Severity.ERROR,
                        subject=circuit.name,
                        message=f"rule {rule_entry.name} crashed: {exc}",
                        category="internal",
                    )
                )
                continue
        overflow = emitted - config.max_findings_per_rule
        if overflow > 0:
            diagnostics.append(
                Diagnostic(
                    rule_id=rule_entry.rule_id,
                    severity=Severity.NOTE,
                    subject=circuit.name,
                    message=(
                        f"{overflow} further finding(s) truncated "
                        f"(max_findings_per_rule={config.max_findings_per_rule})"
                    ),
                    category=rule_entry.category,
                )
            )

    return LintReport(
        circuit_name=circuit.name,
        diagnostics=diagnostics,
        rules_run=tuple(ran),
        elapsed_seconds=time.perf_counter() - start,
    )


def replay_lint_observability(report: LintReport, tracer: Tracer) -> None:
    """Emit the ``lint.rule`` spans that :func:`run_lint` emitted when
    it produced ``report``.

    A reused report must look like a fresh run: whether this process
    already linted the circuit is an execution accident (worker
    processes have cold memos), and per-task traces must be identical
    at every ``--jobs`` level.
    """
    for rule_id in report.rules_run:
        with tracer.span(
            "lint.rule", rule=rule_id, circuit=report.circuit_name
        ):
            pass
