"""Gate-level sequential netlist representation.

A :class:`Circuit` is a named directed graph of :class:`Node` objects.
Each node is one of:

* a **primary input** (``NodeKind.INPUT``) — no fanin;
* a **gate** (``NodeKind.GATE``) — a combinational primitive from
  :class:`repro.circuit.gates.GateType` with one or more fanin nodes;
* a **D flip-flop** (``NodeKind.DFF``) — a single-input edge-triggered
  register with a known initial (reset) value.

Primary outputs are references to existing nodes (a node may be both an
internal signal and a PO, as in BLIF).  The paper's circuits are exactly
this model: synchronous single-clock machines of library gates and
edge-triggered DFFs; the clock is implicit.

The class is mutable — synthesis, retiming and time-frame expansion all
edit circuits in place or on copies — but every mutator maintains the
structural invariants checked by :meth:`Circuit.check`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import CircuitError
from .gates import GateType, X, ZERO, ONE


class NodeKind(enum.Enum):
    INPUT = "input"
    GATE = "gate"
    DFF = "dff"


@dataclasses.dataclass
class Node:
    """One signal in the netlist.

    Attributes:
        name:  globally unique signal name.
        kind:  INPUT, GATE or DFF.
        gate:  the combinational primitive (GATE nodes only).
        fanin: names of driving nodes.  INPUT nodes have none; DFF nodes
               have exactly one (their D input).
        init:  initial (power-up / reset) ternary value — DFF nodes only.
    """

    name: str
    kind: "NodeKind"
    gate: Optional[GateType] = None
    fanin: Tuple[str, ...] = ()
    init: int = X

    def is_input(self) -> bool:
        return self.kind is NodeKind.INPUT

    def is_gate(self) -> bool:
        return self.kind is NodeKind.GATE


class Circuit:
    """A synchronous gate-level sequential circuit.

    Construction is incremental (``add_input`` / ``add_gate`` /
    ``add_dff`` / ``add_output``); use
    :class:`repro.circuit.builder.CircuitBuilder` for a friendlier fluent
    interface.  Node insertion order is preserved, which keeps file
    output and iteration deterministic.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._fanout_cache: Optional[Dict[str, Tuple[str, ...]]] = None
        self._structure_version = 0

    # -- introspection ----------------------------------------------------

    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input names, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary output node names, in declaration order."""
        return tuple(self._outputs)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise CircuitError(
                f"circuit {self.name!r} has no node named {name!r}"
            ) from None

    def nodes(self) -> Iterator[Node]:
        """All nodes in insertion order."""
        return iter(self._nodes.values())

    def node_names(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def gates(self) -> Iterator[Node]:
        return (n for n in self._nodes.values() if n.kind is NodeKind.GATE)

    def dffs(self) -> Iterator[Node]:
        return (n for n in self._nodes.values() if n.kind is NodeKind.DFF)

    def dff_names(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.dffs())

    def num_gates(self) -> int:
        return sum(1 for _ in self.gates())

    def num_dffs(self) -> int:
        return sum(1 for _ in self.dffs())

    def initial_state(self) -> Tuple[int, ...]:
        """Initial ternary values of the DFFs, in DFF declaration order."""
        return tuple(n.init for n in self.dffs())

    def fanouts(self) -> Dict[str, Tuple[str, ...]]:
        """Map node name -> names of nodes it drives (cached)."""
        if self._fanout_cache is None:
            fanout: Dict[str, List[str]] = {name: [] for name in self._nodes}
            for node in self._nodes.values():
                for driver in node.fanin:
                    if driver in fanout:
                        fanout[driver].append(node.name)
            self._fanout_cache = {k: tuple(v) for k, v in fanout.items()}
        return self._fanout_cache

    def fanout_of(self, name: str) -> Tuple[str, ...]:
        return self.fanouts().get(name, ())

    def is_output(self, name: str) -> bool:
        return name in self._outputs

    @property
    def structure_version(self) -> int:
        """Monotone counter bumped on every mutation: nodes, fanins,
        outputs and register reset values.

        Derived artifacts (compiled programs, reachable sets, lint
        reports; see :mod:`repro.circuit.memo`) key their caches on
        ``(circuit object, structure_version)`` so a netlist mutated
        after analysis rebuilds them transparently instead of aliasing
        a stale result.
        """
        return getattr(self, "_structure_version", 0)

    def _dirty(self) -> None:
        self._fanout_cache = None
        self._structure_version = self.structure_version + 1

    # -- construction -----------------------------------------------------

    def add_input(self, name: str) -> Node:
        self._check_fresh(name)
        node = Node(name=name, kind=NodeKind.INPUT)
        self._nodes[name] = node
        self._inputs.append(name)
        self._dirty()
        return node

    def add_gate(self, name: str, gate: GateType, fanin: Sequence[str]) -> Node:
        self._check_fresh(name)
        fanin = tuple(fanin)
        if not gate.min_fanin <= len(fanin) <= gate.max_fanin:
            raise CircuitError(
                f"gate {name!r}: {gate.value} cannot take {len(fanin)} inputs"
            )
        node = Node(name=name, kind=NodeKind.GATE, gate=gate, fanin=fanin)
        self._nodes[name] = node
        self._dirty()
        return node

    def add_dff(self, name: str, d_input: str, init: int = X) -> Node:
        self._check_fresh(name)
        if init not in (ZERO, ONE, X):
            raise CircuitError(f"dff {name!r}: init must be ternary, got {init!r}")
        node = Node(name=name, kind=NodeKind.DFF, fanin=(d_input,), init=init)
        self._nodes[name] = node
        self._dirty()
        return node

    def add_output(self, name: str) -> None:
        """Declare an existing (or forward-referenced) node as a PO."""
        self._outputs.append(name)
        self._dirty()

    def _check_fresh(self, name: str) -> None:
        if not name:
            raise CircuitError("node names must be non-empty")
        if name in self._nodes:
            raise CircuitError(
                f"circuit {self.name!r} already has a node named {name!r}"
            )

    # -- mutation ----------------------------------------------------------

    def replace_fanin(self, name: str, new_fanin: Sequence[str]) -> None:
        """Rewire the fanin list of a gate or DFF node."""
        node = self.node(name)
        new_fanin = tuple(new_fanin)
        if node.kind is NodeKind.INPUT:
            raise CircuitError(f"cannot set fanin of primary input {name!r}")
        if node.kind is NodeKind.DFF and len(new_fanin) != 1:
            raise CircuitError(f"dff {name!r} must have exactly one fanin")
        if node.kind is NodeKind.GATE:
            assert node.gate is not None
            if not node.gate.min_fanin <= len(new_fanin) <= node.gate.max_fanin:
                raise CircuitError(
                    f"gate {name!r}: {node.gate.value} cannot take "
                    f"{len(new_fanin)} inputs"
                )
        node.fanin = new_fanin
        self._dirty()

    def set_init(self, name: str, init: int) -> None:
        node = self.node(name)
        if node.kind is not NodeKind.DFF:
            raise CircuitError(f"node {name!r} is not a DFF")
        if init not in (ZERO, ONE, X):
            raise CircuitError(f"dff {name!r}: init must be ternary, got {init!r}")
        node.init = init
        self._dirty()

    def remove_node(self, name: str) -> None:
        """Remove a node nobody references (no fanout, not a PO)."""
        node = self.node(name)
        if self.fanout_of(name):
            raise CircuitError(
                f"cannot remove {name!r}: still drives {self.fanout_of(name)}"
            )
        if name in self._outputs:
            raise CircuitError(f"cannot remove {name!r}: it is a primary output")
        del self._nodes[name]
        if node.kind is NodeKind.INPUT:
            self._inputs.remove(name)
        self._dirty()

    def rewire_readers(self, old: str, new: str) -> None:
        """Redirect every reader of ``old`` (fanins and POs) to ``new``."""
        if old not in self._nodes:
            raise CircuitError(f"no node named {old!r}")
        if new not in self._nodes:
            raise CircuitError(f"no node named {new!r}")
        for node in self._nodes.values():
            if old in node.fanin:
                node.fanin = tuple(new if f == old else f for f in node.fanin)
        self._outputs = [new if o == old else o for o in self._outputs]
        self._dirty()

    # -- copying -----------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep copy (nodes are re-created; no shared mutable state)."""
        clone = Circuit(name if name is not None else self.name)
        for node in self._nodes.values():
            clone._nodes[node.name] = Node(
                name=node.name,
                kind=node.kind,
                gate=node.gate,
                fanin=node.fanin,
                init=node.init,
            )
        clone._inputs = list(self._inputs)
        clone._outputs = list(self._outputs)
        return clone

    # -- integrity ----------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`CircuitError` on any structural inconsistency.

        Checks: all fanin references resolve; PO references resolve; input
        list matches INPUT nodes; DFF fanin arity; no combinational cycles
        (cycles must pass through a DFF).
        """
        input_nodes = {n.name for n in self._nodes.values() if n.is_input()}
        if input_nodes != set(self._inputs):
            raise CircuitError(
                f"circuit {self.name!r}: input list does not match INPUT nodes"
            )
        if len(set(self._inputs)) != len(self._inputs):
            raise CircuitError(f"circuit {self.name!r}: duplicate primary inputs")
        for node in self._nodes.values():
            for driver in node.fanin:
                if driver not in self._nodes:
                    raise CircuitError(
                        f"circuit {self.name!r}: node {node.name!r} reads "
                        f"undefined signal {driver!r}"
                    )
            if node.kind is NodeKind.DFF and len(node.fanin) != 1:
                raise CircuitError(
                    f"circuit {self.name!r}: dff {node.name!r} has "
                    f"{len(node.fanin)} fanins"
                )
        for po in self._outputs:
            if po not in self._nodes:
                raise CircuitError(
                    f"circuit {self.name!r}: output {po!r} is undefined"
                )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Detect combinational cycles (paths not broken by a DFF)."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._nodes}
        for root in self._nodes:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[str, Iterator[str]]] = []
            color[root] = GREY
            node = self._nodes[root]
            comb_fanin = () if node.kind is NodeKind.DFF else node.fanin
            stack.append((root, iter(comb_fanin)))
            while stack:
                current, children = stack[-1]
                advanced = False
                for child in children:
                    if color[child] == GREY:
                        raise CircuitError(
                            f"circuit {self.name!r}: combinational cycle "
                            f"through {child!r}"
                        )
                    if color[child] == WHITE:
                        color[child] = GREY
                        child_node = self._nodes[child]
                        child_fanin = (
                            ()
                            if child_node.kind is NodeKind.DFF
                            else child_node.fanin
                        )
                        stack.append((child, iter(child_fanin)))
                        advanced = True
                        break
                if not advanced:
                    color[current] = BLACK
                    stack.pop()

    # -- display -------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Headline size numbers for logs and tables."""
        return {
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "gates": self.num_gates(),
            "dffs": self.num_dffs(),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Circuit({self.name!r}, pi={s['inputs']}, po={s['outputs']}, "
            f"gates={s['gates']}, dffs={s['dffs']})"
        )
