"""Iterative-array model: unrolled semantics, fault injection, and the
compiled five-valued kernel against the interpreted ``eval_gate5``
frame loop it replaced."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, D, DBAR, GateType, ONE, X, ZERO
from repro.circuit.gates import (
    FIVE_VALUES,
    eval_gate5,
    five_join,
    five_not,
    five_split,
    five_xor,
)
from repro.circuit.graph import topological_order
from repro.circuit.netlist import NodeKind
from repro.atpg import UnrolledModel, Variable
from repro.fault import Fault
from repro.sim import TernarySimulator
from repro.sim.compile import (
    FIVE_CODE,
    FIVE_COLLAPSE,
    FIVE_COLLAPSE_INVERT,
    FIVE_DECODE,
    FIVE_XOR,
    clear_program_cache,
    compiled_program_cached,
    five_stuck_table,
)
from repro._util import make_rng


class TestGoodMachine:
    def test_unrolled_matches_sequential(self, two_bit_counter):
        """Frame-by-frame values of the fault-free model must equal the
        sequential simulator run from the same state."""
        model = UnrolledModel(two_bit_counter, fault=None, max_frames=4)
        model.set_frames(4)
        for position in range(2):
            model.assign(Variable("state", 0, position), ZERO)
        for frame in range(4):
            model.assign(Variable("pi", frame, 0), ONE)
        frames = model.simulate()
        reference = TernarySimulator(two_bit_counter)
        state = (0, 0)
        for frame in range(4):
            for position, dff_index in enumerate(
                model.dff_out_indices()
            ):
                assert frames[frame][dff_index] == state[position]
            _, state = reference.step([1], state)

    def test_unassigned_is_x(self, toggle_circuit):
        model = UnrolledModel(toggle_circuit, fault=None, max_frames=2)
        frames = model.simulate()
        q_index = model.dff_out_indices()[0]
        assert frames[0][q_index] == X

    def test_assign_unassign(self, toggle_circuit):
        model = UnrolledModel(toggle_circuit, fault=None, max_frames=2)
        variable = Variable("state", 0, 0)
        model.assign(variable, ONE)
        assert model.value_of(variable) == ONE
        model.unassign(variable)
        assert model.value_of(variable) is None


class TestFaultInjection:
    def test_d_created_at_excited_site(self, toggle_circuit):
        fault = Fault("q", ZERO)  # q stuck-at-0
        model = UnrolledModel(toggle_circuit, fault, max_frames=2)
        model.assign(Variable("state", 0, 0), ONE)  # good q = 1
        frames = model.simulate()
        q_index = model.index_of("q")
        assert frames[0][q_index] == D

    def test_no_d_when_not_excited(self, toggle_circuit):
        fault = Fault("q", ZERO)
        model = UnrolledModel(toggle_circuit, fault, max_frames=2)
        model.assign(Variable("state", 0, 0), ZERO)  # good q = 0 = stuck
        frames = model.simulate()
        assert frames[0][model.index_of("q")] == ZERO

    def test_fault_present_in_every_frame(self, toggle_circuit):
        fault = Fault("d", ONE)  # D input stuck-at-1
        model = UnrolledModel(toggle_circuit, fault, max_frames=3)
        model.set_frames(3)
        model.assign(Variable("state", 0, 0), ZERO)
        for frame in range(3):
            model.assign(Variable("pi", frame, 0), ZERO)
        frames = model.simulate()
        d_index = model.index_of("d")
        # good d = enable XOR q = 0; faulty = 1 -> DBAR each frame 0; in
        # later frames the faulty state diverges (faulty q becomes 1).
        assert frames[0][d_index] == DBAR

    def test_d_propagates_across_frames(self, two_bit_counter):
        fault = Fault("d0", ZERO)
        model = UnrolledModel(two_bit_counter, fault, max_frames=2)
        model.set_frames(2)
        for position in range(2):
            model.assign(Variable("state", 0, position), ZERO)
        model.assign(Variable("pi", 0, 0), ONE)  # good d0 = 1, faulty 0
        model.assign(Variable("pi", 1, 0), ZERO)
        frames = model.simulate()
        q0_index = model.dff_out_indices()[0]
        assert frames[1][q0_index] == D  # captured into the register


class TestWindow:
    def test_frame_growth_drops_stale_assignments(self, toggle_circuit):
        model = UnrolledModel(toggle_circuit, fault=None, max_frames=3)
        model.set_frames(3)
        model.assign(Variable("pi", 2, 0), ONE)
        model.set_frames(2)
        assert model.value_of(Variable("pi", 2, 0)) is None

    def test_bad_frame_count_rejected(self, toggle_circuit):
        from repro.errors import AtpgError

        model = UnrolledModel(toggle_circuit, fault=None, max_frames=2)
        with pytest.raises(AtpgError):
            model.set_frames(5)


# -- compiled five-valued kernel vs the interpreted frame loop --------------


def reference_frames(
    circuit, fault, num_frames, pi_assignment, state_assignment
):
    """The interpreted frame loop: every gate through ``eval_gate5``,
    the fault's faulty value forced with ``five_split``/``five_join``
    at its site in every frame.  Values are indexed by topological
    order, like the model's slots."""
    order = topological_order(circuit)
    index = {name: i for i, name in enumerate(order)}
    pis = [index[name] for name in circuit.inputs]
    dff_names = circuit.dff_names()
    dff_out = [index[name] for name in dff_names]
    dff_d = [index[circuit.node(name).fanin[0]] for name in dff_names]
    plan = [
        (index[node.name], node.gate, [index[f] for f in node.fanin])
        for node in map(circuit.node, order)
        if node.kind is NodeKind.GATE
    ]
    fault_index = index[fault.node] if fault is not None else -1
    source_fault = fault is not None and (
        circuit.node(fault.node).kind is not NodeKind.GATE
    )

    def faulty(value):
        good, _ = five_split(value)
        return five_join(good, fault.stuck_at)

    frames = []
    previous_d = None
    for frame in range(num_frames):
        values = [X] * len(order)
        for position, slot in enumerate(pis):
            values[slot] = pi_assignment.get((frame, position), X)
        for position, slot in enumerate(dff_out):
            if frame == 0:
                values[slot] = state_assignment.get(position, X)
            else:
                values[slot] = previous_d[position]
        if source_fault:
            values[fault_index] = faulty(values[fault_index])
        for out, gate, fanin in plan:
            value = eval_gate5(gate, [values[i] for i in fanin])
            if out == fault_index:
                value = faulty(value)
            values[out] = value
        frames.append(values)
        previous_d = [values[i] for i in dff_d]
    return frames


def every_gate_circuit(seed, num_inputs=3, num_gates=14, num_dffs=3):
    """A random sequential circuit over every ``GateType``: multi-fanin
    XOR/XNOR, constants, and registers fed by any signal (a PI, another
    register, a gate)."""
    rng = make_rng(seed)
    circuit = Circuit(f"every{seed}")
    signals = [f"x{i}" for i in range(num_inputs)]
    for name in signals:
        circuit.add_input(name)
    dff_names = [f"q{j}" for j in range(num_dffs)]
    signals += dff_names
    for g in range(num_gates):
        gate = rng.choice(list(GateType))
        arity = rng.randint(gate.min_fanin, min(gate.max_fanin, 4))
        name = f"g{g}"
        fanin = [rng.choice(signals) for _ in range(arity)]
        circuit.add_gate(name, gate, fanin)
        signals.append(name)
    for name in dff_names:
        circuit.add_dff(name, rng.choice(signals), init=rng.randrange(2))
    for _ in range(2):
        circuit.add_output(rng.choice(signals))
    circuit.check()
    return circuit


class TestCompiledKernel:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_interpreted_loop(self, seed):
        circuit = every_gate_circuit(seed)
        rng = make_rng(seed * 7 + 3)
        site = rng.choice([None] + sorted(circuit.node_names()))
        fault = None if site is None else Fault(site, rng.choice((ZERO, ONE)))
        max_frames = rng.randint(1, 4)
        model = UnrolledModel(circuit, fault, max_frames=max_frames)
        for _ in range(30):
            op = rng.randrange(4)
            if op == 0:
                model.set_frames(rng.randint(1, max_frames))
            elif op == 1:
                frame = rng.randrange(model.num_frames)
                variable = Variable("pi", frame, rng.randrange(model.num_pis))
                model.assign(variable, rng.choice((ZERO, ONE)))
            elif op == 2:
                variable = Variable("state", 0, rng.randrange(model.num_dffs))
                model.assign(variable, rng.choice((ZERO, ONE)))
            else:
                assigned = [
                    Variable("pi", f, p) for f, p in model.pi_assignment
                ] + [Variable("state", 0, p) for p in model.state_assignment]
                if assigned:
                    model.unassign(rng.choice(sorted(assigned, key=repr)))
            assert model.simulate() == reference_frames(
                circuit,
                fault,
                model.num_frames,
                model.pi_assignment,
                model.state_assignment,
            )

    def test_gates_exhaustive_over_pairs_and_triples(self):
        """Every gate type at every arity up to 3, over every
        five-valued input combination, fault-free and with the gate
        stuck at either value."""
        circuit = Circuit("exhaustive")
        for name in ("a", "b", "c"):
            circuit.add_input(name)
        gates = []
        for gate in GateType:
            for arity in range(gate.min_fanin, min(gate.max_fanin, 3) + 1):
                name = f"{gate.value}{arity}"
                circuit.add_gate(name, gate, ["a", "b", "c"][:arity])
                gates.append((name, gate, arity))
        circuit.add_output(gates[0][0])
        program = compiled_program_cached(circuit)
        sources = [program.index[name] for name in ("a", "b", "c")]
        for site, stuck in [(None, None)] + [
            (name, value) for name, _, _ in gates for value in (ZERO, ONE)
        ]:
            tables = list(program.five_valued_tables)
            if site is not None:
                slot = program.index[site]
                tables[slot] = five_stuck_table(tables[slot], stuck)
            for inputs in itertools.product(FIVE_VALUES, repeat=3):
                codes = [0] * program.num_slots
                for slot, value in zip(sources, inputs):
                    codes[slot] = FIVE_CODE[value]
                program.five_valued_kernel(codes, tables)
                for name, gate, arity in gates:
                    expected = eval_gate5(gate, inputs[:arity])
                    if name == site:
                        expected = five_join(five_split(expected)[0], stuck)
                    got = FIVE_DECODE[codes[program.index[name]]]
                    assert got == expected, (name, inputs, site)

    def test_code_tables(self):
        for value in FIVE_VALUES:
            assert FIVE_DECODE[FIVE_CODE[value]] == value
            inverted = FIVE_COLLAPSE_INVERT[FIVE_CODE[value]]
            assert FIVE_DECODE[inverted] == five_not(value)
            for other in FIVE_VALUES:
                raw = FIVE_XOR[FIVE_CODE[value]][FIVE_CODE[other]]
                assert FIVE_DECODE[raw] == five_xor([value, other])
        # Collapse: exactly the five literal codes survive, the rest are X.
        assert FIVE_CODE == (5, 10, 0, 6, 9)
        assert sorted(set(FIVE_COLLAPSE)) == sorted(FIVE_CODE)
        fixed = [code for code in range(16) if FIVE_COLLAPSE[code] == code]
        assert fixed == sorted(FIVE_CODE)

    def test_kernel_shared_per_circuit(self, two_bit_counter):
        first = UnrolledModel(two_bit_counter, None, max_frames=2)
        second = UnrolledModel(two_bit_counter, Fault("d0", ONE), 3)
        first.simulate()
        second.simulate()
        program = compiled_program_cached(two_bit_counter)
        assert first.plan is second.plan is program.plan
        kernel = program.five_valued_kernel
        clear_program_cache()
        fresh = compiled_program_cached(two_bit_counter)
        assert fresh.five_valued_kernel is not kernel
