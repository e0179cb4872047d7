"""The SCOAP sweeps against the original dict-based implementation.

:func:`repro.analysis.testability.scoap` resolves fanin slots and gate
rules once and skips observability work for unobserved nodes.  Those
are pure speed-ups: the node order, sweep count and iteration cap are
the original ones, so every measure must come out bit-identical —
including on circuits that stop at the cap.  The original sweep is
kept below, verbatim, as the oracle.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import make_rng
from repro.analysis.testability import INFINITY, ScoapReport, scoap
from repro.circuit import ONE, X, ZERO, CircuitBuilder, GateType
from repro.circuit.netlist import Circuit, NodeKind
from repro.errors import AnalysisError
from repro.harness.suite import TABLE3_CIRCUITS, build_pair


# -- the original sweep ------------------------------------------------


def _gate_controllabilities(
    gate: GateType,
    fanin0: List[float],
    fanin1: List[float],
) -> Tuple[float, float]:
    """(CC0, CC1) of a gate's output from its inputs' measures."""

    def cheapest(values: List[float]) -> float:
        return min(values) if values else INFINITY

    def total(values: List[float]) -> float:
        return sum(values) if values else INFINITY

    if gate is GateType.CONST0:
        return 0.0, INFINITY
    if gate is GateType.CONST1:
        return INFINITY, 0.0
    if gate is GateType.BUF:
        return fanin0[0] + 1, fanin1[0] + 1
    if gate is GateType.NOT:
        return fanin1[0] + 1, fanin0[0] + 1
    if gate is GateType.AND:
        return cheapest(fanin0) + 1, total(fanin1) + 1
    if gate is GateType.NAND:
        return total(fanin1) + 1, cheapest(fanin0) + 1
    if gate is GateType.OR:
        return total(fanin0) + 1, cheapest(fanin1) + 1
    if gate is GateType.NOR:
        return cheapest(fanin1) + 1, total(fanin0) + 1
    if gate in (GateType.XOR, GateType.XNOR):
        # Parity: cost of the cheapest input combination per parity.
        even = 0.0
        odd = INFINITY
        for c0, c1 in zip(fanin0, fanin1):
            new_even = min(even + c0, odd + c1)
            new_odd = min(even + c1, odd + c0)
            even, odd = new_even, new_odd
        if gate is GateType.XOR:
            return even + 1, odd + 1
        return odd + 1, even + 1
    raise AnalysisError(f"no SCOAP rule for gate {gate!r}")


def reference_scoap(
    circuit: Circuit, max_iterations: int = 60, seed_reset: bool = False
) -> ScoapReport:
    """The sweep as it stood before the flat-array rewrite."""
    circuit.check()
    names = list(circuit.node_names())
    cc0 = {n: INFINITY for n in names}
    cc1 = {n: INFINITY for n in names}
    sc0 = {n: INFINITY for n in names}
    sc1 = {n: INFINITY for n in names}

    for pi in circuit.inputs:
        cc0[pi] = cc1[pi] = 1.0
        sc0[pi] = sc1[pi] = 0.0

    if seed_reset:
        for dff in circuit.dffs():
            if dff.init in (0, 1):
                target_c = cc1 if dff.init else cc0
                target_s = sc1 if dff.init else sc0
                target_c[dff.name] = 0.0
                target_s[dff.name] = 0.0

    def relax() -> bool:
        changed = False
        for node in circuit.nodes():
            if node.kind is NodeKind.INPUT:
                continue
            if node.kind is NodeKind.DFF:
                driver = node.fanin[0]
                # Loading a value costs its D-input controllability plus
                # one sequential step.
                candidates = (
                    (cc0, cc0[driver]),
                    (cc1, cc1[driver]),
                )
                for target, value in candidates:
                    if value + 0 < target[node.name]:
                        target[node.name] = value
                        changed = True
                for target, source in ((sc0, sc0), (sc1, sc1)):
                    value = source[driver] + 1
                    if value < target[node.name]:
                        target[node.name] = value
                        changed = True
                continue
            fanin0 = [cc0[f] for f in node.fanin]
            fanin1 = [cc1[f] for f in node.fanin]
            new0, new1 = _gate_controllabilities(node.gate, fanin0, fanin1)
            if new0 < cc0[node.name]:
                cc0[node.name] = new0
                changed = True
            if new1 < cc1[node.name]:
                cc1[node.name] = new1
                changed = True
            sfanin0 = [sc0[f] for f in node.fanin]
            sfanin1 = [sc1[f] for f in node.fanin]
            snew0, snew1 = _gate_controllabilities(
                node.gate, sfanin0, sfanin1
            )
            # Gates add no sequential depth: strip the +1 the
            # combinational rule added (clamp at 0).
            snew0 = max(0.0, snew0 - 1)
            snew1 = max(0.0, snew1 - 1)
            if snew0 < sc0[node.name]:
                sc0[node.name] = snew0
                changed = True
            if snew1 < sc1[node.name]:
                sc1[node.name] = snew1
                changed = True
        return changed

    for _ in range(max_iterations):
        if not relax():
            break

    observability = _observabilities(circuit, cc0, cc1, max_iterations)
    return ScoapReport(
        cc0=cc0, cc1=cc1, sc0=sc0, sc1=sc1, observability=observability
    )


def _observabilities(
    circuit: Circuit,
    cc0: Dict[str, float],
    cc1: Dict[str, float],
    max_iterations: int,
) -> Dict[str, float]:
    observability = {n: INFINITY for n in circuit.node_names()}
    for po in circuit.outputs:
        observability[po] = 0.0

    def relax() -> bool:
        changed = False
        for node in circuit.nodes():
            base = observability[node.name]
            if node.kind is NodeKind.DFF:
                driver = node.fanin[0]
                value = base + 1
                if value < observability[driver]:
                    observability[driver] = value
                    changed = True
                continue
            if node.kind is not NodeKind.GATE:
                continue
            gate = node.gate
            for position, driver in enumerate(node.fanin):
                side = _side_inputs_cost(gate, node.fanin, position, cc0, cc1)
                value = base + side + 1
                if value < observability[driver]:
                    observability[driver] = value
                    changed = True
        return changed

    for _ in range(max_iterations):
        if not relax():
            break
    return observability


def _side_inputs_cost(
    gate: GateType,
    fanin: Tuple[str, ...],
    position: int,
    cc0: Dict[str, float],
    cc1: Dict[str, float],
) -> float:
    """Cost of holding the other inputs at non-controlling values."""
    others = [f for i, f in enumerate(fanin) if i != position]
    if gate in (GateType.BUF, GateType.NOT):
        return 0.0
    if gate in (GateType.AND, GateType.NAND):
        return sum(cc1[f] for f in others)
    if gate in (GateType.OR, GateType.NOR):
        return sum(cc0[f] for f in others)
    if gate in (GateType.XOR, GateType.XNOR):
        return sum(min(cc0[f], cc1[f]) for f in others)
    return INFINITY  # constants: unobservable through


def assert_identical(circuit, **options):
    new = scoap(circuit, **options)
    old = reference_scoap(circuit, **options)
    for field in ("cc0", "cc1", "sc0", "sc1", "observability"):
        # Dict equality plus key order: hardest_lines() sorts stably.
        assert list(getattr(new, field).items()) == list(
            getattr(old, field).items()
        ), field


def random_any_gate_circuit(seed, num_inputs, num_gates, num_dffs):
    """A random sequential circuit over every gate type, constants and
    wide gates included, with X, 0 and 1 register inits."""
    rng = make_rng(seed)
    builder = CircuitBuilder(f"scoap{seed}")
    signals = [builder.input(f"x{i}") for i in range(num_inputs)]
    dff_names = [f"q{j}" for j in range(num_dffs)]
    signals.extend(dff_names)
    created = []
    for _ in range(num_gates):
        gate = rng.choice(list(GateType))
        if gate in (GateType.CONST0, GateType.CONST1):
            arity = 0
        elif gate in (GateType.BUF, GateType.NOT):
            arity = 1
        else:
            arity = rng.randint(2, 5)
        fanin = [rng.choice(signals + created) for _ in range(arity)]
        created.append(builder.gate(gate, fanin))
    circuit = builder._circuit
    for name in dff_names:
        circuit.add_dff(name, rng.choice(created), init=rng.choice((ZERO, ONE, X)))
    for _ in range(2):
        circuit.add_output(rng.choice(created))
    circuit.check()
    return circuit


@pytest.mark.parametrize("name", TABLE3_CIRCUITS)
@pytest.mark.parametrize("side", ("original", "retimed"))
def test_table3_circuits_match(name, side):
    pair = build_pair(name)
    circuit = pair.original_circuit if side == "original" else pair.retimed_circuit
    assert_identical(circuit, max_iterations=60, seed_reset=True)
    assert_identical(circuit)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_gates=st.integers(min_value=1, max_value=30),
    num_dffs=st.integers(min_value=0, max_value=4),
    max_iterations=st.integers(min_value=0, max_value=6),
    seed_reset=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_random_circuits_match(seed, num_gates, num_dffs, max_iterations, seed_reset):
    """Small caps stop most of these mid-fixpoint, where any change in
    sweep order or count would show."""
    circuit = random_any_gate_circuit(seed, 3, num_gates, num_dffs)
    assert_identical(circuit, max_iterations=max_iterations, seed_reset=seed_reset)
    assert_identical(circuit, max_iterations=60, seed_reset=seed_reset)
