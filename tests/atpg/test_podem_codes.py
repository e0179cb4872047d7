"""The search's code-reading checks, and HITEC's compiled trace memory,
against the decoded and interpreted implementations they replaced.

The ``decoded_*`` functions below are PODEM's goal, objective,
D-frontier and X-path checks as they read the five-valued literals of
:meth:`UnrolledModel.simulate`; ``remember_trace_by_simulator`` is the
trace memory as it stepped :class:`TernarySimulator`.  They are kept
here, verbatim in behaviour, as oracles: the code-reading versions must
give the same verdicts, the same objectives and the same frontier
order, so decision order and every search counter stay unchanged.
"""

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro._util import make_rng
from repro.atpg import UnrolledModel, Variable
from repro.atpg.frames import run_frames
from repro.atpg.hitec import Justifier
from repro.atpg.podem import FaultPodem, JustifyPodem, SearchMeter, effect_slots
from repro.atpg.result import EffortBudget
from repro.circuit.gates import D, DBAR, ONE, X, ZERO, five_split
from repro.fault import Fault
from repro.harness.suite import build_pair
from repro.obs.search import SearchObserver, StateClassifier
from repro.sim import TernarySimulator
from repro.sim.compile import FIVE_CODE, FIVE_DECODE, compiled_program_cached

from tests.atpg.test_frames import every_gate_circuit

# -- decoded oracles ----------------------------------------------------------


def decoded_fault_goal_satisfied(model, frames) -> bool:
    for values in frames:
        for po_index in model.po_indices():
            if values[po_index] in (D, DBAR):
                return True
    return False


def decoded_fault_goal_impossible(model, frames) -> bool:
    activation = ONE if model.fault.stuck_at == ZERO else ZERO
    good0, _ = five_split(frames[0][model.index_of(model.fault.node)])
    if good0 == X:
        return False
    if good0 != activation:
        return True
    return not decoded_x_path_exists(model, frames)


def decoded_fault_next_objective(model, frames):
    fault_index = model.index_of(model.fault.node)
    good0, _ = five_split(frames[0][fault_index])
    if good0 == X:
        return (0, fault_index, ONE if model.fault.stuck_at == ZERO else ZERO)
    frontier = decoded_d_frontier(model, frames)
    if not frontier:
        return None
    frame, gate_index = frontier[0]
    values = frames[frame]
    noncontrolling = model.node_gate(gate_index).noncontrolling_value()
    for input_index in model.node_fanin(gate_index):
        good, _ = five_split(values[input_index])
        if good == X:
            return (frame, input_index, noncontrolling if noncontrolling != X else ONE)
    return None


def decoded_d_frontier(model, frames) -> List[Tuple[int, int]]:
    frontier: List[Tuple[int, int]] = []
    scores: Dict[Tuple[int, int], Tuple] = {}
    for frame, values in enumerate(frames):
        for _, out_index, fanin_index in model.plan:
            if values[out_index] != X:
                continue
            if not any(values[i] in (D, DBAR) for i in fanin_index):
                continue
            key = (frame, out_index)
            frontier.append(key)
            room = model.max_frames - frame
            scores[key] = (
                model.dist_po[out_index],
                model.dist_dff[out_index] if room > 1 else 10 ** 9,
                -frame,
            )
    frontier.sort(key=lambda k: scores[k])
    return frontier


def decoded_x_path_exists(model, frames) -> bool:
    po_set = model.po_slots
    reached: Set[Tuple[int, int]] = set()
    worklist: List[Tuple[int, int]] = []
    for frame, values in enumerate(frames):
        for index, value in enumerate(values):
            if value in (D, DBAR):
                if index in po_set:
                    return True
                reached.add((frame, index))
                worklist.append((frame, index))
    while worklist:
        frame, index = worklist.pop()
        for reader_index in model.fanout_slots[index]:
            if reader_index in model.dff_position:
                next_frame = frame + 1
                if next_frame >= model.max_frames:
                    continue
                key = (next_frame, reader_index)
                if key in reached:
                    continue
                reached.add(key)
                worklist.append(key)
                if reader_index in po_set:
                    return True
                continue
            if frame < len(frames):
                if frames[frame][reader_index] not in (X, D, DBAR):
                    continue
            if reader_index in po_set:
                return True
            key = (frame, reader_index)
            if key in reached:
                continue
            reached.add(key)
            worklist.append(key)
    return False


def decoded_justify_checks(model, required, frames):
    """(goal_satisfied, goal_impossible, next_objective) as decoded."""
    values = frames[0]
    targets = [
        (model.dff_d_indices()[position], value)
        for position, value in sorted(required.items())
    ]
    goods = [(five_split(values[index])[0], value, index) for index, value in targets]
    satisfied = all(good == value for good, value, _ in goods)
    impossible = any(good != X and good != value for good, value, _ in goods)
    objective = next(
        ((0, index, value) for good, value, index in goods if good == X), None
    )
    return satisfied, impossible, objective


def remember_trace_by_simulator(justifier, simulator, sequence) -> None:
    """Trace memory through one ``TernarySimulator.step`` per vector."""
    state = simulator.initial_state()
    for index, vector in enumerate(sequence):
        _, state = simulator.step(vector, state)
        if X in state:
            justifier.observer.note_partial_state()
            continue
        key = tuple(state)
        if key not in justifier.known_states:
            justifier.known_states[key] = [list(v) for v in sequence[: index + 1]]
        justifier.states_seen.add(key)


# -- random walks over a model's assignments ------------------------------------


def random_walk(model, rng, steps=30):
    """Yield after each random set_frames / assign / unassign step."""
    for _ in range(steps):
        op = rng.randrange(4)
        if op == 0:
            model.set_frames(rng.randint(1, model.max_frames))
        elif op == 1 and model.num_pis:
            frame = rng.randrange(model.num_frames)
            variable = Variable("pi", frame, rng.randrange(model.num_pis))
            model.assign(variable, rng.choice((ZERO, ONE)))
        elif op == 2 and model.num_dffs:
            variable = Variable("state", 0, rng.randrange(model.num_dffs))
            model.assign(variable, rng.choice((ZERO, ONE)))
        else:
            assigned = [Variable("pi", f, p) for f, p in model.pi_assignment] + [
                Variable("state", 0, p) for p in model.state_assignment
            ]
            if assigned:
                model.unassign(rng.choice(sorted(assigned, key=repr)))
        yield


def check_fault_search(circuit, fault, max_frames, rng, steps=30):
    model = UnrolledModel(circuit, fault, max_frames=max_frames)
    search = FaultPodem(model, SearchMeter(10, 10.0))
    for _ in random_walk(model, rng, steps):
        codes = model.simulate_codes()
        frames = model.simulate()
        assert [[FIVE_DECODE[code] for code in frame] for frame in codes] == frames
        for code_frame, frame in zip(codes, frames):
            assert sorted(effect_slots(code_frame)) == [
                index for index, value in enumerate(frame) if value in (D, DBAR)
            ]
        assert search.goal_satisfied(codes) == decoded_fault_goal_satisfied(model, frames)
        assert search._x_path_exists(codes) == decoded_x_path_exists(model, frames)
        assert search._d_frontier(codes) == decoded_d_frontier(model, frames)
        assert search.goal_impossible(codes) == decoded_fault_goal_impossible(model, frames)
        assert search.next_objective(codes) == decoded_fault_next_objective(model, frames)


def check_justify_search(circuit, rng, steps=30):
    model = UnrolledModel(circuit, None, max_frames=1)
    positions = rng.sample(range(model.num_dffs), rng.randint(1, model.num_dffs))
    required = {position: rng.choice((ZERO, ONE)) for position in positions}
    search = JustifyPodem(model, SearchMeter(10, 10.0), required)
    for _ in random_walk(model, rng, steps):
        codes = model.simulate_codes()
        expected = decoded_justify_checks(model, required, model.simulate())
        assert (
            search.goal_satisfied(codes),
            search.goal_impossible(codes),
            search.next_objective(codes),
        ) == expected


def random_fault(circuit, rng):
    site = rng.choice(sorted(circuit.node_names()))
    return Fault(site, rng.choice((ZERO, ONE)))


class TestCodeChecksMatchDecoded:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_fault_search_on_random_circuits(self, seed):
        circuit = every_gate_circuit(seed)
        rng = make_rng(seed * 11 + 5)
        check_fault_search(circuit, random_fault(circuit, rng), rng.randint(1, 4), rng)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_justify_search_on_random_circuits(self, seed):
        circuit = every_gate_circuit(seed)
        check_justify_search(circuit, make_rng(seed * 13 + 1))

    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_both_dk16_sides(self, seed, retimed):
        pair = build_pair("dk16.ji.sd")
        circuit = pair.retimed_circuit if retimed else pair.original_circuit
        rng = make_rng(seed)
        check_fault_search(circuit, random_fault(circuit, rng), 4, rng, steps=40)
        check_justify_search(circuit, rng, steps=20)


# -- trace memory --------------------------------------------------------------


def ternary_sequence(circuit, rng, length, x_rate):
    return [
        [X if rng.random() < x_rate else rng.randrange(2) for _ in circuit.inputs]
        for _ in range(length)
    ]


def justifier_for(circuit) -> Justifier:
    return Justifier(
        circuit,
        EffortBudget.quick(),
        learning=None,
        states_seen=set(),
        observer=SearchObserver(StateClassifier(circuit)),
    )


def check_trace_memory(circuit, rng, sequences=4):
    simulator = TernarySimulator(circuit)
    program = compiled_program_cached(circuit)
    # run_frames from any ternary state equals TernarySimulator.step.
    state = tuple(rng.choice((ZERO, ONE, X)) for _ in range(simulator.num_dffs))
    sequence = ternary_sequence(circuit, rng, 12, x_rate=0.3)
    frames = run_frames(
        program,
        program.five_valued_tables,
        [FIVE_CODE[value] for value in state],
        ([FIVE_CODE[value] for value in vector] for vector in sequence),
    )
    for vector, codes in zip(sequence, frames):
        outputs, state = simulator.step(vector, state)
        assert tuple(FIVE_DECODE[codes[slot]] for slot in program.dff_d_slots) == state
        assert tuple(FIVE_DECODE[codes[slot]] for slot in program.output_slots) == outputs
    # remember_trace records what the simulator-stepped memory records.
    compiled, stepped = justifier_for(circuit), justifier_for(circuit)
    for _ in range(sequences):
        sequence = ternary_sequence(circuit, rng, rng.randint(1, 16), rng.choice((0.0, 0.1, 0.5)))
        compiled.remember_trace(sequence)
        remember_trace_by_simulator(stepped, simulator, sequence)
    assert compiled.known_states == stepped.known_states
    assert compiled.states_seen == stepped.states_seen
    assert compiled.observer.tally.partial_states == stepped.observer.tally.partial_states


class TestTraceMemoryMatchesSimulator:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_circuits(self, seed):
        check_trace_memory(every_gate_circuit(seed), make_rng(seed * 17 + 3))

    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_both_dk16_sides(self, seed, retimed):
        pair = build_pair("dk16.ji.sd")
        circuit = pair.retimed_circuit if retimed else pair.original_circuit
        check_trace_memory(circuit, make_rng(seed))
