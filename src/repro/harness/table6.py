"""Table 6: HITEC state-traversal and density-of-encoding information.

The paper's central table: retimed circuits explode the total state
space while the valid-state count grows slowly, so the density of
encoding collapses and the ATPG traverses a shrinking fraction of the
valid states.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.traversal import traversal_report
from ..atpg.result import AtpgResult
from ..circuit.netlist import Circuit
from .atpg_tables import PairRun, run_pair
from .config import HarnessConfig
from .suite import TABLE2_CIRCUITS
from .tables import Column, Table, eng


def generate(
    config: Optional[HarnessConfig] = None,
    runs: Optional[List[PairRun]] = None,
) -> Table:
    """Regenerate Table 6; pass Table 2's ``runs`` to reuse its HITEC
    results instead of re-running the engine."""
    config = config or HarnessConfig.default()
    circuits = config.circuits or TABLE2_CIRCUITS
    if runs is None:
        runs = [run_pair(name, "hitec", config) for name in circuits]
    rows = []
    for run in runs:
        rows.extend(rows_for_run(run))
    return build_table(rows)


def rows_for_run(run: PairRun) -> List[Dict]:
    """Both Table 6 rows (original then retimed) for one HITEC run."""
    return [
        _row(run.pair.name, run.pair.original_circuit, run.original),
        _row(
            f"{run.pair.name}.re",
            run.pair.retimed_circuit,
            run.retimed,
        ),
    ]


def build_table(rows: List[Dict]) -> Table:
    return Table(
        title="Table 6: HITEC ATPG state traversal information",
        columns=[
            Column("circuit", "circuit"),
            Column("traversed", "#states HITEC trav"),
            Column("valid", "#valid states"),
            Column("pct_valid", "% valid states trav", lambda v: f"{v:.0f}"),
            Column("total", "total #states", eng),
            Column("density", "density of encoding", eng),
        ],
        rows=rows,
    )


def _row(name: str, circuit: Circuit, result: AtpgResult) -> Dict:
    report = traversal_report(circuit, result)
    return {
        "circuit": name,
        "traversed": report.states_traversed,
        "valid": report.num_valid_states,
        "pct_valid": report.percent_valid_traversed,
        "total": float(report.total_states),
        "density": report.density_of_encoding,
    }
