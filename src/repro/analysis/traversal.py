"""State-traversal instrumentation behind Tables 6 and 8.

Connects the ATPG engines' traversal records with the valid-state
analysis: which fraction of the valid states did a test-generation run
drive the machine through, and how many states does an existing test
set traverse when fault-simulated on a (possibly different, e.g.
retimed) circuit.
"""

from __future__ import annotations

import dataclasses

from ..atpg.result import AtpgResult, TestSet
from ..circuit.netlist import Circuit
from ..fault.simulator import FaultSimulator
from .density import reachable_states


@dataclasses.dataclass
class TraversalReport:
    """Table 6's traversal columns for one circuit × ATPG run."""

    circuit_name: str
    states_traversed: int
    num_valid_states: int
    total_states: int

    @property
    def percent_valid_traversed(self) -> float:
        if self.num_valid_states == 0:
            return 0.0
        return 100.0 * self.states_traversed / self.num_valid_states

    @property
    def density_of_encoding(self) -> float:
        return self.num_valid_states / float(self.total_states)


def traversal_report(
    circuit: Circuit, atpg_result: AtpgResult
) -> TraversalReport:
    """Combine an ATPG run's traversal set with the valid-state count."""
    reachable = reachable_states(circuit)
    report = reachable.report()
    traversed = {
        state
        for state in atpg_result.states_traversed
        if reachable.contains(state)
    }
    return TraversalReport(
        circuit_name=circuit.name,
        states_traversed=len(traversed),
        num_valid_states=report.num_valid_states,
        total_states=report.total_states,
    )


@dataclasses.dataclass
class CrossSimulationReport:
    """Table 8: the original circuit's test set fault-simulated on the
    retimed circuit."""

    circuit_name: str
    fault_coverage: float
    states_traversed: int

    def __str__(self) -> str:
        return (
            f"{self.circuit_name}: orig test set attains "
            f"{self.fault_coverage:.1f}% FC traversing "
            f"{self.states_traversed} states"
        )


def simulate_test_set_on(
    circuit: Circuit,
    test_set: TestSet,
    pad_prefix: int = 0,
) -> CrossSimulationReport:
    """Fault-simulate a test set on ``circuit`` (Table 8's experiment).

    ``pad_prefix`` prepends that many arbitrary (all-zero) vectors to
    every sequence — the paper's P ∪ T construction for tests carried
    across a retiming (§4.1, footnote 1).
    """
    simulator = FaultSimulator(circuit)
    sequences = []
    for sequence in test_set:
        padding = [[0] * len(circuit.inputs) for _ in range(pad_prefix)]
        sequences.append(padding + [list(v) for v in sequence])
    report = simulator.run(sequences)
    return CrossSimulationReport(
        circuit_name=circuit.name,
        fault_coverage=report.coverage_percent(),
        states_traversed=len(report.states_traversed),
    )
