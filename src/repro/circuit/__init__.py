"""Gate-level sequential netlists: the circuit substrate.

Public surface:

* :class:`Circuit`, :class:`Node`, :class:`NodeKind` — the netlist.
* :class:`CircuitBuilder` — fluent construction.
* :class:`GateType` and the ternary / five-valued logic helpers.
* graph traversals (:func:`topological_order`, :func:`levelize`,
  cones, register adjacency).
* BLIF interchange (:func:`read_blif`, :func:`write_blif`).
"""

from .gates import (
    D,
    DBAR,
    ONE,
    X,
    ZERO,
    GateType,
    char_to_ternary,
    eval_gate,
    eval_gate2,
    eval_gate5,
    five_join,
    five_split,
    ternary_to_char,
)
from .netlist import Circuit, Node, NodeKind
from .builder import CircuitBuilder
from .graph import (
    combinational_outputs,
    dead_nodes,
    levelize,
    pi_to_dff_edges,
    register_adjacency,
    sweep_dead_nodes,
    topological_order,
    transitive_fanin,
    transitive_fanout,
)
from .blif import load_blif, read_blif, save_blif, write_blif
from .transform import cleanup, collapse_buffers, propagate_constants

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "GateType",
    "Node",
    "NodeKind",
    "ZERO",
    "ONE",
    "X",
    "D",
    "DBAR",
    "char_to_ternary",
    "combinational_outputs",
    "dead_nodes",
    "eval_gate",
    "eval_gate2",
    "eval_gate5",
    "five_join",
    "five_split",
    "levelize",
    "load_blif",
    "pi_to_dff_edges",
    "read_blif",
    "register_adjacency",
    "save_blif",
    "sweep_dead_nodes",
    "ternary_to_char",
    "topological_order",
    "transitive_fanin",
    "transitive_fanout",
    "write_blif",
    "cleanup",
    "collapse_buffers",
    "propagate_constants",
]
