"""Pipeline gating: run the analyzer at flow boundaries.

Two call sites use this module:

* the **post-synthesis gate** — :func:`repro.synth.synthesize.synthesize`
  lints every mapped netlist before returning it (warn-only by default),
  so defective synthesis products are surfaced instead of silently fed
  to ATPG;
* the **pre-ATPG gate** — the experiment harness lints every circuit an
  engine is about to chew on.  In ``strict`` mode an error-severity
  diagnostic aborts the run (:class:`repro.errors.LintError`); in
  ``warn`` mode diagnostics are logged and recorded in the run ledger so
  every Table-1..8 report states the diagnostics it ran under.

Gate findings go through the ``repro.lint`` logger (WARNING for the
one-line summary, DEBUG for individual diagnostics), so library users
control verbosity with standard logging configuration.
"""

from __future__ import annotations

import dataclasses
import enum
import logging
from typing import AbstractSet, Dict, Hashable, List, Mapping, Optional, Tuple

from ..circuit.memo import CircuitMemo
from ..circuit.netlist import Circuit
from ..errors import LintError
from .core import LintConfig, LintReport, replay_lint_observability, run_lint
from .severity import Severity

logger = logging.getLogger("repro.lint")


class GateMode(enum.Enum):
    """How a pipeline gate reacts to diagnostics."""

    OFF = "off"  # skip the analyzer entirely
    WARN = "warn"  # log + record, never raise
    STRICT = "strict"  # raise LintError at error severity

    @classmethod
    def parse(cls, value: "str | GateMode") -> "GateMode":
        if isinstance(value, GateMode):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown lint gate mode {value!r}; expected one of: {names}"
            ) from None


@dataclasses.dataclass
class LedgerEntry:
    stage: str
    report: LintReport


class LintLedger:
    """Per-run accumulator of gate reports, rendered into harness output."""

    def __init__(self) -> None:
        self._entries: List[LedgerEntry] = []

    def clear(self) -> None:
        self._entries.clear()

    def record(self, stage: str, report: LintReport) -> None:
        """Record a gate run; a repeated stage replaces its entry (tables
        sharing circuits re-gate them — the summary wants one row each)."""
        for position, entry in enumerate(self._entries):
            if entry.stage == stage:
                self._entries[position] = LedgerEntry(stage=stage, report=report)
                return
        self._entries.append(LedgerEntry(stage=stage, report=report))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[LedgerEntry]:
        return list(self._entries)

    def totals(self) -> Dict[str, int]:
        totals = {str(s): 0 for s in Severity}
        for entry in self._entries:
            for severity, count in entry.report.counts().items():
                totals[severity] += count
        return totals

    def render_summary(self, title: str = "Static analysis (DRC) gate") -> str:
        """The diagnostics section appended to harness reports."""
        if not self._entries:
            return f"{title}: no circuits gated"
        totals = self.totals()
        lines = [
            f"{title}: {len(self._entries)} circuit(s) analyzed — "
            + ", ".join(
                f"{totals[str(s)]} {s}(s)" for s in reversed(list(Severity))
            )
        ]
        for entry in self._entries:
            report = entry.report
            worst = report.worst()
            lines.append(
                f"  {entry.stage}: {len(report)} finding(s)"
                + (f", worst={worst}" if worst else "")
            )
            flagged = report.at_or_above(Severity.WARNING)
            for diag in flagged[:_SUMMARY_DETAIL_LIMIT]:
                lines.append(f"    {diag}")
            if len(flagged) > _SUMMARY_DETAIL_LIMIT:
                lines.append(
                    f"    ... {len(flagged) - _SUMMARY_DETAIL_LIMIT} more"
                )
        return "\n".join(lines)


#: Findings shown per ledger entry in the harness report summary.
_SUMMARY_DETAIL_LIMIT = 4

#: The process-wide ledger the harness drains into its report.
GLOBAL_LEDGER = LintLedger()


def gate_circuit(
    circuit: Circuit,
    mode: "str | GateMode" = GateMode.WARN,
    stage: str = "",
    config: Optional[LintConfig] = None,
    ledger: Optional[LintLedger] = GLOBAL_LEDGER,
    obs=None,
) -> Optional[LintReport]:
    """Run the analyzer as a flow gate; returns the report (None if OFF).

    ``strict`` raises :class:`LintError` when any diagnostic reaches the
    config's ``fail_on`` threshold (error severity by default); ``warn``
    logs a one-line summary at WARNING and the individual findings at
    DEBUG.  Every non-OFF invocation is recorded in ``ledger``.
    ``obs`` is forwarded to :func:`run_lint` for per-rule spans.

    Gates share one report per circuit (structure version) and config:
    the post-synthesis and pre-ATPG gates, and every engine's pre-ATPG
    gate on the same netlist, run the rules once.  A reused report
    still gets its ledger stage, its strict-mode check and the spans a
    fresh run would have emitted.
    """
    mode = GateMode.parse(mode)
    if mode is GateMode.OFF:
        return None
    config = config or LintConfig()
    stage = stage or f"lint:{circuit.name}"
    if obs is not None:
        with obs.trace.span("lint.gate", stage=stage):
            report = _lint_memoized(circuit, config, obs)
    else:
        report = _lint_memoized(circuit, config, obs=None)
    if ledger is not None:
        ledger.record(stage, report)

    flagged = report.at_or_above(Severity.WARNING)
    if flagged:
        counts = report.counts()
        summary = (
            f"{stage}: {counts['error']} error(s), "
            f"{counts['warning']} warning(s) from {len(report.rules_run)} rules"
        )
        for diag in flagged:
            logger.debug("%s: %s", stage, diag)
        if mode is GateMode.STRICT and report.at_or_above(config.fail_on):
            rendered = "\n".join(
                str(d) for d in report.at_or_above(config.fail_on)
            )
            raise LintError(
                f"circuit {circuit.name!r} failed the {stage} lint gate "
                f"(fail-on={config.fail_on}):\n{rendered}"
            )
        # Errors surface on stderr by default (logging's last-resort
        # handler); mere warnings stay at INFO so test runs aren't noisy.
        logger.log(
            logging.WARNING if report.errors else logging.INFO, "%s", summary
        )
    return report


_REPORTS: "CircuitMemo[Dict[Tuple[Hashable, ...], LintReport]]" = CircuitMemo()


def _lint_memoized(
    circuit: Circuit, config: LintConfig, obs
) -> LintReport:
    """:func:`run_lint` with the default rule set, memoized per circuit
    version, circuit name and config field values."""
    reports = _REPORTS.get(circuit, lambda _circuit: {})
    key = (circuit.name, _config_key(config))
    report = reports.get(key)
    if report is None:
        report = run_lint(circuit, config, obs=obs)
        reports[key] = report
    elif obs is not None:
        replay_lint_observability(report, obs)
    return report


def _config_key(config: LintConfig) -> Tuple[Hashable, ...]:
    """Hashable form of a config; equal field values give equal keys."""
    key: List[Hashable] = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, Mapping):
            value = tuple(sorted(value.items()))
        elif isinstance(value, AbstractSet):
            value = frozenset(value)
        key.append(value)
    return tuple(key)
