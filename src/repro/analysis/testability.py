"""SCOAP testability measures (Goldstein's controllability/observability).

The pre-1995 toolbox for predicting test-generation difficulty was
dominated by SCOAP-style metrics: per-line 0/1-controllability (how
hard to set the line) and observability (how hard to see it at an
output).  The paper's whole point is that such *structural* indicators
— like sequential depth and cycle counts — fail to explain the retiming
blowup, while density of encoding does.  This module implements
sequential SCOAP so that claim can be tested directly: the ablation
benchmark correlates SCOAP aggregates and density of encoding against
measured ATPG cost across original/retimed pairs.

Definitions follow the classical formulation:

* ``CC0/CC1(line)`` — combinational controllabilities; PIs cost 1, a
  gate adds 1 plus the cheapest way to produce its output value from
  its inputs' controllabilities.
* ``SC0/SC1(line)`` — sequential controllabilities; crossing a DFF adds
  one *sequential* unit instead of a combinational one.
* ``CO/SO(line)`` — observabilities, propagated backwards from POs.

Cyclic circuits are handled by fixpoint iteration with a convergence
cap (standard practice; values saturate at ``INFINITY`` for
uncontrollable lines, e.g. those requiring unreachable states).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit, NodeKind
from ..errors import AnalysisError

INFINITY = 10.0 ** 9


@dataclasses.dataclass
class ScoapReport:
    """SCOAP numbers for one circuit.

    ``cc0``/``cc1`` are combinational controllabilities, ``sc0``/``sc1``
    sequential ones, ``observability`` the combined CO measure, all per
    node name.
    """

    cc0: Dict[str, float]
    cc1: Dict[str, float]
    sc0: Dict[str, float]
    sc1: Dict[str, float]
    observability: Dict[str, float]

    def hardest_lines(self, count: int = 10) -> List[Tuple[str, float]]:
        """Lines with the worst (largest finite) max-controllability."""
        scored = []
        for name in self.cc0:
            worst = max(self.cc0[name], self.cc1[name])
            scored.append((name, worst))
        scored.sort(key=lambda item: -item[1])
        return scored[:count]

    def mean_controllability(self) -> float:
        """Average of finite max(CC0, CC1) over all lines — the scalar
        the correlation ablation uses."""
        finite = [
            max(self.cc0[n], self.cc1[n])
            for n in self.cc0
            if max(self.cc0[n], self.cc1[n]) < INFINITY
        ]
        return sum(finite) / len(finite) if finite else INFINITY

    def mean_observability(self) -> float:
        finite = [
            v for v in self.observability.values() if v < INFINITY
        ]
        return sum(finite) / len(finite) if finite else INFINITY


def _cheapest(values: List[float]) -> float:
    return min(values) if values else INFINITY


def _total(values: List[float]) -> float:
    return sum(values) if values else INFINITY


def _parity(fanin0: List[float], fanin1: List[float]) -> Tuple[float, float]:
    """(even, odd): cost of the cheapest input combination per parity."""
    even = 0.0
    odd = INFINITY
    for c0, c1 in zip(fanin0, fanin1):
        new_even = min(even + c0, odd + c1)
        new_odd = min(even + c1, odd + c0)
        even, odd = new_even, new_odd
    return even, odd


def _xor(fanin0: List[float], fanin1: List[float]) -> Tuple[float, float]:
    even, odd = _parity(fanin0, fanin1)
    return even + 1, odd + 1


def _xnor(fanin0: List[float], fanin1: List[float]) -> Tuple[float, float]:
    even, odd = _parity(fanin0, fanin1)
    return odd + 1, even + 1


Rule = Callable[[List[float], List[float]], Tuple[float, float]]

#: (CC0, CC1) of a gate's output from its inputs' measures.
_CONTROLLABILITY: Dict[GateType, Rule] = {
    GateType.CONST0: lambda f0, f1: (0.0, INFINITY),
    GateType.CONST1: lambda f0, f1: (INFINITY, 0.0),
    GateType.BUF: lambda f0, f1: (f0[0] + 1, f1[0] + 1),
    GateType.NOT: lambda f0, f1: (f1[0] + 1, f0[0] + 1),
    GateType.AND: lambda f0, f1: (_cheapest(f0) + 1, _total(f1) + 1),
    GateType.NAND: lambda f0, f1: (_total(f1) + 1, _cheapest(f0) + 1),
    GateType.OR: lambda f0, f1: (_total(f0) + 1, _cheapest(f1) + 1),
    GateType.NOR: lambda f0, f1: (_cheapest(f1) + 1, _total(f0) + 1),
    GateType.XOR: _xor,
    GateType.XNOR: _xnor,
}


def scoap(
    circuit: Circuit, max_iterations: int = 60, seed_reset: bool = False
) -> ScoapReport:
    """Compute sequential SCOAP measures by fixpoint iteration.

    With ``seed_reset``, a register's init value is treated as free to
    control (the reset state costs nothing to reach), which keeps lines
    that are trivially exercised from reset — e.g. a toggle loop
    ``d = q XOR en`` — from saturating just because every structural
    path to them runs through the register itself.  Off by default: the
    classical measures the correlation study compares against do not
    credit reset.

    Each sweep visits the nodes in declaration order, reading and
    writing flat per-node arrays; fanin slots and gate rules are
    resolved once, before the first sweep.
    """
    circuit.check()
    names = list(circuit.node_names())
    slot = {name: i for i, name in enumerate(names)}
    cc0 = [INFINITY] * len(names)
    cc1 = [INFINITY] * len(names)
    sc0 = [INFINITY] * len(names)
    sc1 = [INFINITY] * len(names)

    for pi in circuit.inputs:
        cc0[slot[pi]] = cc1[slot[pi]] = 1.0
        sc0[slot[pi]] = sc1[slot[pi]] = 0.0

    if seed_reset:
        for dff in circuit.dffs():
            if dff.init in (0, 1):
                target_c = cc1 if dff.init else cc0
                target_s = sc1 if dff.init else sc0
                target_c[slot[dff.name]] = 0.0
                target_s[slot[dff.name]] = 0.0

    # (node slot, fanin slots, gate rule); a DFF's rule is None.
    plan: List[Tuple[int, Tuple[int, ...], Optional[Rule]]] = []
    for node in circuit.nodes():
        if node.kind is NodeKind.INPUT:
            continue
        rule = None
        if node.kind is NodeKind.GATE:
            rule = _CONTROLLABILITY.get(node.gate)
            if rule is None:
                raise AnalysisError(f"no SCOAP rule for gate {node.gate!r}")
        plan.append((slot[node.name], tuple(slot[f] for f in node.fanin), rule))

    def relax() -> bool:
        changed = False
        for out, fanin, rule in plan:
            if rule is None:
                # Loading a value costs its D-input controllability
                # plus one sequential step.
                driver = fanin[0]
                value = cc0[driver]
                if value < cc0[out]:
                    cc0[out] = value
                    changed = True
                value = cc1[driver]
                if value < cc1[out]:
                    cc1[out] = value
                    changed = True
                value = sc0[driver] + 1
                if value < sc0[out]:
                    sc0[out] = value
                    changed = True
                value = sc1[driver] + 1
                if value < sc1[out]:
                    sc1[out] = value
                    changed = True
                continue
            new0, new1 = rule([cc0[i] for i in fanin], [cc1[i] for i in fanin])
            if new0 < cc0[out]:
                cc0[out] = new0
                changed = True
            if new1 < cc1[out]:
                cc1[out] = new1
                changed = True
            snew0, snew1 = rule(
                [sc0[i] for i in fanin], [sc1[i] for i in fanin]
            )
            # Gates add no sequential depth: strip the +1 the
            # combinational rule added (clamp at 0).
            snew0 = max(0.0, snew0 - 1)
            snew1 = max(0.0, snew1 - 1)
            if snew0 < sc0[out]:
                sc0[out] = snew0
                changed = True
            if snew1 < sc1[out]:
                sc1[out] = snew1
                changed = True
        return changed

    for _ in range(max_iterations):
        if not relax():
            break

    observability = _observabilities(circuit, slot, cc0, cc1, max_iterations)
    return ScoapReport(
        cc0=dict(zip(names, cc0)),
        cc1=dict(zip(names, cc1)),
        sc0=dict(zip(names, sc0)),
        sc1=dict(zip(names, sc1)),
        observability=dict(zip(names, observability)),
    )


def _observabilities(
    circuit: Circuit,
    slot: Dict[str, int],
    cc0: List[float],
    cc1: List[float],
    max_iterations: int,
) -> List[float]:
    observability = [INFINITY] * len(slot)
    for po in circuit.outputs:
        observability[slot[po]] = 0.0
    # (node slot, fanin slots, side-input cost per fanin position); the
    # controllabilities are final, so the side costs are too.
    plan = []
    for node in circuit.nodes():
        if node.kind is NodeKind.INPUT:
            continue
        fanin = tuple(slot[f] for f in node.fanin)
        plan.append((slot[node.name], fanin, _side_costs(node.gate, fanin, cc0, cc1)))

    def relax() -> bool:
        changed = False
        for out, fanin, sides in plan:
            base = observability[out]
            if base >= INFINITY:
                # Nothing observes this node yet: base + cost exceeds
                # INFINITY, which no stored value does.
                continue
            for driver, side in zip(fanin, sides):
                value = base + side + 1
                if value < observability[driver]:
                    observability[driver] = value
                    changed = True
        return changed

    for _ in range(max_iterations):
        if not relax():
            break
    return observability


def _side_costs(
    gate: Optional[GateType],
    fanin: Tuple[int, ...],
    cc0: List[float],
    cc1: List[float],
) -> List[float]:
    """Per fanin position, the cost of holding the other inputs at
    non-controlling values (a DFF, ``gate`` None, passes through)."""
    if gate is None or gate in (GateType.BUF, GateType.NOT):
        return [0.0] * len(fanin)
    if gate in (GateType.AND, GateType.NAND):
        values = [cc1[i] for i in fanin]
    elif gate in (GateType.OR, GateType.NOR):
        values = [cc0[i] for i in fanin]
    elif gate in (GateType.XOR, GateType.XNOR):
        values = [min(cc0[i], cc1[i]) for i in fanin]
    else:
        return [INFINITY] * len(fanin)  # constants: unobservable through
    # The others' measures summed in fanin order, as one sum().
    return [
        sum(values[:position] + values[position + 1:])
        for position in range(len(values))
    ]


def testability_summary(circuit: Circuit) -> Dict[str, float]:
    """Scalar aggregates for the correlation ablation."""
    report = scoap(circuit)
    uncontrollable = sum(
        1
        for n in report.cc0
        if max(report.cc0[n], report.cc1[n]) >= INFINITY
    )
    return {
        "mean_controllability": report.mean_controllability(),
        "mean_observability": report.mean_observability(),
        "uncontrollable_lines": float(uncontrollable),
    }


# pytest must not collect this public helper as a test.
testability_summary.__test__ = False
