"""Figure 3: ATPG performance as a function of density of encoding.

For the original circuit and each retimed version of the Table 7 sweep,
run HITEC with per-fault checkpointing and emit the (CPU seconds,
fault efficiency) series.  The paper's shape: the lower the density of
encoding, the more CPU any given fault-efficiency level costs — the
curves order by density.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..analysis.density import reachability_report
from ..atpg.hitec import HitecEngine
from ..fault.analysis import analyze_faults_cached
from ..obs import Tracer
from .config import HarnessConfig, select_target_faults
from .suite import TABLE7_CIRCUIT
from .table7 import sweep_circuits


@dataclasses.dataclass
class Curve:
    """One Figure 3 series."""

    circuit_name: str
    density_of_encoding: float
    points: List[Tuple[float, float]]  # (cpu seconds, fault efficiency %)
    # Invalid fraction of the run's classified search-examine events
    # (the search observatory's waste fraction); None on curves from
    # pre-observatory ledgers.
    invalid_fraction: Optional[float] = None

    def final_efficiency(self) -> float:
        return self.points[-1][1] if self.points else 0.0

    def cpu_to_reach(self, efficiency: float) -> Optional[float]:
        """CPU seconds until the run first reached the given FE level."""
        for cpu, fe in self.points:
            if fe >= efficiency:
                return cpu
        return None

    def to_dict(self) -> dict:
        """JSON-able form for the run ledger."""
        return {
            "circuit_name": self.circuit_name,
            "density_of_encoding": self.density_of_encoding,
            "points": [[cpu, fe] for cpu, fe in self.points],
            "invalid_fraction": self.invalid_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Curve":
        return cls(
            circuit_name=data["circuit_name"],
            density_of_encoding=data["density_of_encoding"],
            points=[(cpu, fe) for cpu, fe in data["points"]],
            invalid_fraction=data.get("invalid_fraction"),
        )


def generate(
    config: Optional[HarnessConfig] = None,
    circuit_name: str = TABLE7_CIRCUIT,
    depths: Tuple[int, ...] = (1, 2),
    tracer: Optional[Tracer] = None,
) -> List[Curve]:
    """One HITEC run per sweep circuit; ``tracer`` records each run's
    ``atpg.*`` spans (a harness cell passes its own)."""
    config = config or HarnessConfig.default()
    original, versions = sweep_circuits(config, circuit_name, depths)
    circuits = [original.circuit] + [v.circuit for v in versions]
    curves: List[Curve] = []
    for circuit in circuits:
        density = reachability_report(circuit).density_of_encoding
        # Engine-side FE curves: the reduced target list is the point
        # (same analysis cache as the tables), no expansion needed.
        analysis = analyze_faults_cached(
            circuit, level=config.collapse_level
        )
        faults = select_target_faults(analysis, config)
        result = HitecEngine(
            circuit, budget=config.budget, tracer=tracer
        ).run(faults)
        points = [
            (cp.cpu_seconds, cp.fault_efficiency)
            for cp in result.checkpoints
        ]
        counters = result.counters()
        classified = counters.get("search.valid_events", 0) + counters.get(
            "search.invalid_events", 0
        )
        invalid_fraction = (
            counters.get("search.invalid_events", 0) / classified
            if classified
            else None
        )
        curves.append(
            Curve(
                circuit_name=circuit.name,
                density_of_encoding=density,
                points=points,
                invalid_fraction=invalid_fraction,
            )
        )
    return curves


def render(curves: List[Curve]) -> str:
    """ASCII rendering of the curves (final FE and CPU-to-level marks)."""
    lines = [
        "Figure 3: ATPG performance as a function of density of encoding"
    ]
    levels = (50.0, 75.0, 90.0, 95.0)
    header = f"{'circuit':24s} {'density':>10s} " + " ".join(
        f"cpu@{int(level)}%" .rjust(9) for level in levels
    ) + "  final FE  inv-frac"
    lines.append(header)
    for curve in sorted(
        curves, key=lambda c: -c.density_of_encoding
    ):
        marks = []
        for level in levels:
            cpu = curve.cpu_to_reach(level)
            marks.append(f"{cpu:9.1f}" if cpu is not None else "        -")
        invalid = (
            f"{curve.invalid_fraction:8.4f}"
            if curve.invalid_fraction is not None
            else "       -"
        )
        lines.append(
            f"{curve.circuit_name:24s} {curve.density_of_encoding:10.2e} "
            + " ".join(marks)
            + f"  {curve.final_efficiency():7.1f}%"
            + f"  {invalid}"
        )
    return "\n".join(lines)
