"""Ternary (0/1/X) compiled logic simulation.

:class:`TernarySimulator` evaluates the combinational view of a circuit
in topological order and steps the registers explicitly.  X propagation
follows controlling-value semantics (see :mod:`repro.circuit.gates`), so
the simulator is exactly the engine a sequential ATPG needs for circuit
initialization reasoning and the engine the reachability analyses use
for explicit state traversal.

The simulator compiles the netlist once (node order, fanin index lists)
and is then reused across many vectors, which matters because the fault
simulator and the state-traversal analyses call it millions of times.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuit.gates import X, eval_gate
from ..circuit.graph import topological_order
from ..circuit.netlist import Circuit, NodeKind
from ..errors import SimulationError


@dataclasses.dataclass
class SimTrace:
    """Cycle-by-cycle record of a multi-vector simulation.

    Attributes:
        inputs:  the applied PI vectors (ternary tuples).
        outputs: PO values observed each cycle.
        states:  register state *entering* each cycle; ``states[0]`` is
                 the initial state and ``states[-1]`` (one longer than
                 ``inputs``) is the state after the final vector.
    """

    inputs: List[Tuple[int, ...]]
    outputs: List[Tuple[int, ...]]
    states: List[Tuple[int, ...]]

    def final_state(self) -> Tuple[int, ...]:
        return self.states[-1]

    def distinct_states(self) -> set:
        """Fully-specified states visited (states containing X excluded)."""
        return {s for s in self.states if X not in s}


class TernarySimulator:
    """Compiled three-valued simulator for one circuit.

    The circuit must not be structurally modified after construction;
    build a new simulator if it is.
    """

    def __init__(self, circuit: Circuit):
        circuit.check()
        self.circuit = circuit
        self._order = topological_order(circuit)
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self._order)
        }
        self._inputs = [self._index[name] for name in circuit.inputs]
        self._outputs = [self._index[name] for name in circuit.outputs]
        self._dff_names = circuit.dff_names()
        self._dff_out = [self._index[name] for name in self._dff_names]
        self._dff_d = [
            self._index[circuit.node(name).fanin[0]] for name in self._dff_names
        ]
        # Pre-compile per-gate evaluation plans in topological order.
        self._plan: List[Tuple[int, object, List[int]]] = []
        for name in self._order:
            node = circuit.node(name)
            if node.kind is NodeKind.GATE:
                self._plan.append(
                    (
                        self._index[name],
                        node.gate,
                        [self._index[f] for f in node.fanin],
                    )
                )
        self._initial_state = circuit.initial_state()

    # -- basic queries -------------------------------------------------------

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_dffs(self) -> int:
        return len(self._dff_out)

    def initial_state(self) -> Tuple[int, ...]:
        return self._initial_state

    def node_value(self, values: Sequence[int], name: str) -> int:
        """Look up one node's value in a value array returned by
        :meth:`evaluate`."""
        return values[self._index[name]]

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self, pi_values: Sequence[int], state: Sequence[int]
    ) -> List[int]:
        """One combinational evaluation; returns the full node-value array
        indexed by compiled order (use :meth:`node_value` to read it)."""
        if len(pi_values) != len(self._inputs):
            raise SimulationError(
                f"expected {len(self._inputs)} PI values, got {len(pi_values)}"
            )
        if len(state) != len(self._dff_out):
            raise SimulationError(
                f"expected {len(self._dff_out)} state values, got {len(state)}"
            )
        values = [X] * len(self._order)
        for idx, value in zip(self._inputs, pi_values):
            values[idx] = value
        for idx, value in zip(self._dff_out, state):
            values[idx] = value
        for out_idx, gate, fanin_idx in self._plan:
            values[out_idx] = eval_gate(gate, [values[i] for i in fanin_idx])
        return values

    def step(
        self, pi_values: Sequence[int], state: Sequence[int]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Apply one vector: returns ``(po_values, next_state)``."""
        values = self.evaluate(pi_values, state)
        po_values = tuple(values[i] for i in self._outputs)
        next_state = tuple(values[i] for i in self._dff_d)
        return po_values, next_state

    def run(
        self,
        vectors: Iterable[Sequence[int]],
        initial_state: Optional[Sequence[int]] = None,
    ) -> SimTrace:
        """Simulate a vector sequence from the initial (or given) state."""
        state = tuple(
            self._initial_state if initial_state is None else initial_state
        )
        if len(state) != len(self._dff_out):
            raise SimulationError(
                f"expected {len(self._dff_out)} state values, got {len(state)}"
            )
        trace = SimTrace(inputs=[], outputs=[], states=[state])
        for vector in vectors:
            po_values, state = self.step(vector, state)
            trace.inputs.append(tuple(vector))
            trace.outputs.append(po_values)
            trace.states.append(state)
        return trace

    def next_states(
        self, state: Sequence[int], pi_vectors: Iterable[Sequence[int]]
    ) -> List[Tuple[int, ...]]:
        """Successor states of ``state`` under each vector (used by the
        explicit-state reachability cross-check)."""
        return [self.step(v, state)[1] for v in pi_vectors]
