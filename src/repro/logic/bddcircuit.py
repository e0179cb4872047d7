"""Bridge between gate-level netlists and BDDs.

Builds BDDs for the combinational view of a circuit: primary inputs and
DFF outputs become BDD variables, every gate gets its function.  The
reachability analysis (density of encoding), combinational equivalence
checks, and combinational-redundancy identification all go through here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import GateType
from ..circuit.graph import topological_order
from ..circuit.netlist import Circuit, NodeKind
from ..errors import AnalysisError
from .bdd import BddManager


def default_variable_order(circuit: Circuit) -> List[str]:
    """Variable order used when none is supplied: state variables first
    (they drive the image computation), then primary inputs.

    Both groups keep declaration order, which for synthesized circuits
    mirrors encoding bit order — a reasonable static order for control
    logic of this size.
    """
    return list(circuit.dff_names()) + list(circuit.inputs)


class CircuitBdds:
    """BDD functions for every node of one circuit's combinational view.

    Attributes:
        manager:  the owning :class:`BddManager`.
        node_fn:  map from node name to BDD function over PI/state vars.
    """

    def __init__(self, circuit: Circuit, order: Optional[Sequence[str]] = None):
        circuit.check()
        self.circuit = circuit
        if order is None:
            order = default_variable_order(circuit)
        expected = set(circuit.inputs) | set(circuit.dff_names())
        if set(order) != expected:
            raise AnalysisError(
                "variable order must contain exactly the primary inputs "
                "and DFF outputs"
            )
        self.manager = BddManager(order)
        self.node_fn: Dict[str, int] = node_functions(circuit, self.manager)

    # -- convenient views -------------------------------------------------------

    def next_state_functions(self) -> List[Tuple[str, int]]:
        """(DFF name, BDD of its D input), in DFF declaration order."""
        result = []
        for dff in self.circuit.dffs():
            result.append((dff.name, self.node_fn[dff.fanin[0]]))
        return result

    def state_variables(self) -> List[str]:
        return list(self.circuit.dff_names())


def _apply_gate(manager: BddManager, gate: GateType, fanin: List[int]) -> int:
    if gate is GateType.CONST0:
        return manager.FALSE
    if gate is GateType.CONST1:
        return manager.TRUE
    if gate is GateType.BUF:
        return fanin[0]
    if gate is GateType.NOT:
        return manager.not_(fanin[0])
    if gate is GateType.AND:
        return manager.and_many(fanin)
    if gate is GateType.NAND:
        return manager.not_(manager.and_many(fanin))
    if gate is GateType.OR:
        return manager.or_many(fanin)
    if gate is GateType.NOR:
        return manager.not_(manager.or_many(fanin))
    if gate is GateType.XOR:
        acc = manager.FALSE
        for f in fanin:
            acc = manager.xor(acc, f)
        return acc
    if gate is GateType.XNOR:
        acc = manager.FALSE
        for f in fanin:
            acc = manager.xor(acc, f)
        return manager.not_(acc)
    raise AnalysisError(f"unhandled gate type {gate!r}")


def combinationally_equivalent(left: Circuit, right: Circuit) -> bool:
    """Exact equivalence of two circuits' combinational views.

    Requires identical PI names and DFF names (the sequential interface),
    and compares every PO function and every next-state function.  Used
    by synthesis-pipeline self-checks and tests; retiming changes the
    register set, so its verifier uses bounded sequential simulation
    instead (see :mod:`repro.retime.verify`).
    """
    if set(left.inputs) != set(right.inputs):
        return False
    if set(left.dff_names()) != set(right.dff_names()):
        return False
    if len(left.outputs) != len(right.outputs):
        return False
    order = default_variable_order(left)
    left_bdds = CircuitBdds(left, order)
    # Build right's functions in left's manager: within one manager equal
    # functions share a node id, so each comparison is one id check.
    right_on_left = node_functions(right, left_bdds.manager)
    for left_po, right_po in zip(left.outputs, right.outputs):
        if left_bdds.node_fn[left_po] != right_on_left[right_po]:
            return False
    for dff_name in left.dff_names():
        left_d = left.node(dff_name).fanin[0]
        right_d = right.node(dff_name).fanin[0]
        if left_bdds.node_fn[left_d] != right_on_left[right_d]:
            return False
    return True


def node_functions(circuit: Circuit, manager: BddManager) -> Dict[str, int]:
    """Every node's function in ``manager``, which declares at least the
    circuit's primary inputs and DFF outputs (and may be shared)."""
    functions: Dict[str, int] = {}
    for name in topological_order(circuit):
        node = circuit.node(name)
        if node.kind in (NodeKind.INPUT, NodeKind.DFF):
            functions[name] = manager.var(name)
            continue
        functions[name] = _apply_gate(
            manager, node.gate, [functions[f] for f in node.fanin]
        )
    return functions
