"""Shared machinery for the ATPG result tables (Tables 2, 3 and 4).

Each table runs one engine over a set of original/retimed circuit pairs
and reports %FC, %FE and the retimed/original CPU ratio.  Table 2
(HITEC) additionally reports register counts and absolute CPU seconds;
Tables 3 and 4 follow the paper in reporting only coverage figures and
the CPU ratio.

Engines are referred to by registry name (``"hitec"``, ``"sest"``,
``"simbased"``) and constructed through
:func:`repro.atpg.registry.get_engine`; this module never branches on
engine names itself.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..atpg.registry import get_engine
from ..atpg.result import AtpgResult
from ..circuit.netlist import Circuit
from ..fault.analysis import analyze_faults_cached, expand_result
from ..lint import LintConfig, Severity, gate_circuit
from ..obs import Observability
from .config import HarnessConfig, select_target_faults
from .suite import CircuitPair, build_pair
from .tables import Column, Table, pct, ratio


@dataclasses.dataclass
class PairRun:
    """Engine results for one original/retimed pair.

    Both sides are results lifted by
    :func:`~repro.fault.analysis.expand_result`: the engine only
    targeted the analyzer's reduced fault list, but every number a
    table reads from here ranges over the full fault universe.
    """

    pair: CircuitPair
    original: AtpgResult
    retimed: AtpgResult

    @property
    def cpu_ratio(self) -> float:
        baseline = max(self.original.cpu_seconds, 1e-6)
        return self.retimed.cpu_seconds / baseline


def run_engine_on_circuit(
    circuit: Circuit,
    engine: str,
    config: HarnessConfig,
    obs: Optional[Observability] = None,
) -> AtpgResult:
    """One engine × circuit run with the config's fault sampling.

    ``engine`` is a registry name resolved through
    :func:`repro.atpg.registry.get_engine`.  The circuit passes the
    pre-ATPG DRC gate first: in ``strict`` mode a finding at
    ``config.lint_fail_on`` severity aborts the run with
    :class:`repro.errors.LintError`; in ``warn`` mode the diagnostics
    are recorded in the global ledger, which the experiment driver
    appends to its report.

    The engine targets the static analyzer's reduced fault list (at
    ``config.collapse_level``, optionally sampled down to
    ``config.max_faults``); the result is then expanded back over the
    full fault universe — dominance-dropped and sampled-out classes are
    fault-simulated against the emitted test set, so the returned
    coverage numbers are exact whatever the level.
    """
    gate_circuit(
        circuit,
        mode=config.lint_mode,
        stage=f"pre-atpg:{circuit.name}",
        config=LintConfig(fail_on=Severity.parse(config.lint_fail_on)),
        obs=obs,
    )
    analysis = analyze_faults_cached(
        circuit, level=config.collapse_level, obs=obs
    )
    faults = select_target_faults(analysis, config)
    runner = get_engine(engine, circuit, budget=config.budget, obs=obs)
    result = runner.run(faults)
    return expand_result(result, analysis, circuit)


def run_pair(
    name: str,
    engine: str,
    config: HarnessConfig,
    obs: Optional[Observability] = None,
) -> PairRun:
    pair = build_pair(name, target_ratio=config.retime_target_ratio)
    original = run_engine_on_circuit(
        pair.original_circuit, engine, config, obs=obs
    )
    retimed = run_engine_on_circuit(
        pair.retimed_circuit, engine, config, obs=obs
    )
    return PairRun(pair=pair, original=original, retimed=retimed)


def pair_rows(name: str, run: PairRun) -> List[Dict]:
    """Table 2's two rows (original then retimed) for one pair run."""
    rows = [_hitec_row(name, run.pair.original_circuit, run.original)]
    retimed_row = _hitec_row(
        f"{name}.re", run.pair.retimed_circuit, run.retimed
    )
    retimed_row["cpu_ratio"] = run.cpu_ratio
    rows.append(retimed_row)
    return rows


def hitec_table_from_rows(rows: List[Dict]) -> Table:
    """Table 2's layout: one row per circuit (original then retimed)."""
    return Table(
        title="Table 2: HITEC ATPG results",
        columns=[
            Column("circuit", "circuit"),
            Column("dffs", "#DFF"),
            Column("fc", "%FC", pct),
            Column("fe", "%FE", pct),
            Column("cpu", "#CPU seconds", lambda v: f"{v:.1f}"),
            Column("cpu_ratio", "CPU ratio", ratio),
        ],
        rows=rows,
    )


def hitec_table(
    circuits: Tuple[str, ...], config: HarnessConfig
) -> Tuple[Table, List[PairRun]]:
    """Run HITEC over every pair and build Table 2."""
    rows: List[Dict] = []
    runs: List[PairRun] = []
    for name in circuits:
        run = run_pair(name, "hitec", config)
        runs.append(run)
        rows.extend(pair_rows(name, run))
    return hitec_table_from_rows(rows), runs


def _hitec_row(name: str, circuit: Circuit, result: AtpgResult) -> Dict:
    return {
        "circuit": name,
        "dffs": circuit.num_dffs(),
        "fc": result.fault_coverage,
        "fe": result.fault_efficiency,
        "cpu": result.cpu_seconds,
    }


def coverage_row(name: str, run: PairRun) -> Dict:
    """Tables 3/4's single row for one pair run."""
    return {
        "circuit": name,
        "fc_orig": run.original.fault_coverage,
        "fe_orig": run.original.fault_efficiency,
        "fc_re": run.retimed.fault_coverage,
        "fe_re": run.retimed.fault_efficiency,
        "cpu_ratio": run.cpu_ratio,
    }


def coverage_table_from_rows(title: str, rows: List[Dict]) -> Table:
    """Tables 3/4's layout: one row per pair, coverages plus CPU ratio."""
    return Table(
        title=title,
        columns=[
            Column("circuit", "circuit"),
            Column("fc_orig", "%FC (orig)", pct),
            Column("fe_orig", "%FE (orig)", pct),
            Column("fc_re", "%FC (re)", pct),
            Column("fe_re", "%FE (re)", pct),
            Column("cpu_ratio", "CPU ratio", ratio),
        ],
        rows=rows,
    )


def coverage_ratio_table(
    title: str,
    circuits: Tuple[str, ...],
    engine: str,
    config: HarnessConfig,
) -> Tuple[Table, List[PairRun]]:
    """Run an engine over every pair and build a Table 3/4-shaped table."""
    rows: List[Dict] = []
    runs: List[PairRun] = []
    for name in circuits:
        run = run_pair(name, engine, config)
        runs.append(run)
        rows.append(coverage_row(name, run))
    return coverage_table_from_rows(title, rows), runs


def pair_counters(run: PairRun) -> Dict[str, Dict]:
    """Ledger counters for one pair run (both sides)."""
    return {
        "original": run.original.counters(),
        "retimed": run.retimed.counters(),
    }


def pair_lifecycle(run: PairRun) -> Dict[str, List[Dict]]:
    """Per-fault lifecycle records for one pair run (both sides),
    in the scoped shape ``repro.obs.coverage.lifecycle_core`` takes."""
    return {
        "original": run.original.fault_records,
        "retimed": run.retimed.fault_records,
    }
