"""Table 8: how many states must be traversed for high coverage.

For retimed circuits where HITEC collapses, fault-simulating the test
set generated for the *original* circuit on the retimed circuit shows
high coverage is attainable — by traversing several times more states
than HITEC managed.  Retiming preserves testability (Theorem 1); the
original test set (with the P ∪ T padding of §4.1) carries over.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis.traversal import simulate_test_set_on, traversal_report
from .atpg_tables import PairRun, run_pair
from .config import HarnessConfig
from .tables import Column, Table, pct

# The paper applies this analysis to the four lowest-coverage retimed
# circuits; the harness applies it to whichever runs are passed in (or
# builds runs for these defaults).
DEFAULT_CIRCUITS: Tuple[str, ...] = (
    "s510.jc.sr",
    "s510.jo.sr",
    "s832.jc.sr",
    "scf.ji.sd",
)


def generate(
    config: Optional[HarnessConfig] = None,
    runs: Optional[List[PairRun]] = None,
) -> Table:
    config = config or HarnessConfig.default()
    if runs is None:
        circuits = config.circuits or DEFAULT_CIRCUITS
        runs = [run_pair(name, "hitec", config) for name in circuits]
    rows = [row_for_run(run) for run in runs]
    return build_table(rows)


def row_for_run(run: PairRun) -> dict:
    """One Table 8 row: the retimed circuit's traversal versus the
    original circuit's carried-over test set."""
    retimed = run.pair.retimed_circuit
    traversal = traversal_report(retimed, run.retimed)
    cross = simulate_test_set_on(
        retimed,
        run.original.test_set,
        pad_prefix=run.pair.retimed.exact_prefix,
    )
    return {
        "circuit": f"{run.pair.name}.re",
        "fc": run.retimed.fault_coverage,
        "fe": run.retimed.fault_efficiency,
        "traversed": traversal.states_traversed,
        "valid": traversal.num_valid_states,
        "orig_trav": cross.states_traversed,
        "orig_fc": cross.fault_coverage,
    }


def build_table(rows: List[dict]) -> Table:
    return Table(
        title=(
            "Table 8: Number of states which would have to be traversed "
            "to attain higher fault coverage"
        ),
        columns=[
            Column("circuit", "circuit"),
            Column("fc", "%FC", pct),
            Column("fe", "%FE", pct),
            Column("traversed", "#states HITEC trav"),
            Column("valid", "#valid states"),
            Column("orig_trav", "#states trav by orig test set"),
            Column("orig_fc", "%FC orig test set", pct),
        ],
        rows=rows,
    )
