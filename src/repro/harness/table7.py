"""Table 7: density-of-encoding sensitivity analysis.

Default sweep depth is 2.  The depth-3 retiming of s510.jo.sr carries
64 registers and 25,025 valid states (8 image steps); its reachable set,
lifted from the register-merged core, took 76.9 s at 1.27 GB peak RSS
on a 2-vCPU container.  Depth 4 (110 registers) ran out of a 3 GB
memory cap.  Pass deeper ``depths`` explicitly when that cost is
acceptable.

Multiple retimed versions of one original circuit (the paper uses
s510.jo.sr): same function, same sequential depth and cycle structure
(Theorems 2-4), different register counts — therefore different
densities of encoding.  Depth-controlled backward retiming provides the
sweep (see repro.retime.core.backward_retime for why period-driven
retiming is a no-op on single-rank FSM netlists).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis.density import reachability_report
from ..retime.core import RetimedCircuit, backward_retiming_sweep
from ..retime.timing import clock_period
from .config import HarnessConfig
from .suite import TABLE7_CIRCUIT, synthesize_named
from .tables import Column, Table, eng


def sweep_circuits(
    config: Optional[HarnessConfig] = None,
    circuit_name: str = TABLE7_CIRCUIT,
    depths: Tuple[int, ...] = (1, 2),
) -> Tuple[object, List[RetimedCircuit]]:
    """The original circuit plus its retimed versions (shared with the
    Figure 3 harness)."""
    original = synthesize_named(circuit_name)
    versions = backward_retiming_sweep(original.circuit, depths)
    return original, versions


def compute_rows(
    config: Optional[HarnessConfig] = None,
    circuit_name: str = TABLE7_CIRCUIT,
    depths: Tuple[int, ...] = (1, 2),
) -> List[dict]:
    config = config or HarnessConfig.default()
    original, versions = sweep_circuits(config, circuit_name, depths)
    rows = [_row(circuit_name, original.circuit)]
    for version in versions:
        rows.append(_row(version.circuit.name, version.circuit))
    return rows


def generate(
    config: Optional[HarnessConfig] = None,
    circuit_name: str = TABLE7_CIRCUIT,
    depths: Tuple[int, ...] = (1, 2),
) -> Table:
    return build_table(compute_rows(config, circuit_name, depths))


def build_table(rows: List[dict]) -> Table:
    return Table(
        title="Table 7: Density of encoding sensitivity analysis",
        columns=[
            Column("circuit", "circuit"),
            Column("delay", "delay (nsec)", lambda v: f"{v:.2f}"),
            Column("dffs", "#DFF"),
            Column("valid", "#valid states"),
            Column("total", "total #states", eng),
            Column("density", "density of encoding", eng),
        ],
        rows=rows,
    )


def _row(name: str, circuit) -> dict:
    report = reachability_report(circuit)
    return {
        "circuit": name,
        "delay": clock_period(circuit),
        "dffs": circuit.num_dffs(),
        "valid": report.num_valid_states,
        "total": float(report.total_states),
        "density": report.density_of_encoding,
    }
