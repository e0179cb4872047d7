"""Differential: the lane-parallel fault simulator against the group loop.

``tests.fault.reference.reference_run`` executes the 63-wide group
schedule literally, vector by vector.  The lane pass must agree with it
on every detection (sequence index and insertion order), the
``undetected`` order, ``states_traversed`` and every ``sim.*`` counter,
at any lane bound: 2 (one machine pair per pass, so every fault list is
split), 65 (a few sequences per pass) and 4096.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import ONE, ZERO
from repro.fault import FaultSimulator
from repro.fault import simulator as simulator_module
from repro.fault.model import full_fault_list
from repro.harness.suite import build_pair
from repro._util import make_rng

from tests.fault.reference import reference_good_states, reference_run
from tests.helpers import random_circuit

BOUNDS = (2, 65, 4096)
BACKENDS = ("compiled", "interpreted")


def _core(report):
    return (
        list(report.detected.items()),
        report.undetected,
        report.vectors_simulated,
        report.states_traversed,
    )


@st.composite
def cases(draw):
    """A random circuit, a fault list drawn from its whole universe
    (PI, DFF-output and gate faults at both stuck values; possibly
    empty, possibly over one 63-wide group) and from-reset sequences
    of unequal lengths (possibly empty)."""
    circuit = random_circuit(
        draw(st.integers(0, 10_000)),
        num_inputs=draw(st.integers(1, 4)),
        num_gates=draw(st.integers(3, 36)),
        num_dffs=draw(st.integers(1, 3)),
    )
    universe = full_fault_list(circuit)
    faults = draw(st.lists(st.sampled_from(universe), max_size=80))
    vector = st.lists(
        st.sampled_from((ZERO, ONE)),
        min_size=len(circuit.inputs),
        max_size=len(circuit.inputs),
    )
    sequences = draw(st.lists(st.lists(vector, max_size=10), max_size=6))
    return circuit, faults, sequences


class TestRunMatchesGroupLoop:
    @settings(max_examples=40, deadline=None)
    @given(cases(), st.booleans(), st.sampled_from(BACKENDS))
    def test_run(self, case, drop, backend):
        circuit, faults, sequences = case
        oracle = FaultSimulator(circuit, faults=faults, backend=backend)
        expected = _core(reference_run(oracle, sequences, drop=drop))
        for bound in BOUNDS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simulator_module, "LANE_BOUND", bound)
                lanes = FaultSimulator(
                    circuit, faults=faults, backend=backend
                )
                report = lanes.run(sequences, drop=drop)
            assert _core(report) == expected, bound
            assert lanes.counters() == oracle.counters(), bound

    @settings(max_examples=25, deadline=None)
    @given(cases(), st.sampled_from(BACKENDS))
    def test_replayed_prefixes(self, case, backend):
        """simulate_batch + replay is run() on one sequence prefix
        against any subset of the batch's faults, counters included;
        a record never replayed charges nothing."""
        circuit, faults, sequences = case
        for bound in BOUNDS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simulator_module, "LANE_BOUND", bound)
                lanes = FaultSimulator(circuit, faults=[], backend=backend)
                records = lanes.simulate_batch(sequences, faults)
            assert not any(lanes.counters().values())
            oracle = FaultSimulator(circuit, faults=[], backend=backend)
            for index, (sequence, record) in enumerate(
                zip(sequences, records)
            ):
                # A lane stops counting once its sequence has ended.
                assert all(
                    step < len(sequence)
                    for step in record.first_steps.values()
                )
                subset = faults[index % 2 :: 2]
                for length in {len(sequence), (len(sequence) + 1) // 2}:
                    drop = bool((index + length) % 2)
                    got = lanes.replay(record, subset, drop, length)
                    want = reference_run(
                        oracle, [sequence[:length]], subset, drop
                    )
                    assert _core(got) == _core(want)
            assert lanes.counters() == oracle.counters()

    @settings(max_examples=25, deadline=None)
    @given(cases(), st.sampled_from(BACKENDS))
    def test_detects(self, case, backend):
        circuit, faults, sequences = case
        lanes = FaultSimulator(circuit, faults=[], backend=backend)
        oracle = FaultSimulator(circuit, faults=[], backend=backend)
        for sequence in sequences:
            for fault in faults[:6]:
                reference = reference_run(oracle, [sequence], [fault])
                # reference_run counts a sequence; detects() does not.
                oracle.sequences -= 1
                oracle.faults_dropped -= len(reference.detected)
                assert lanes.detects(sequence, fault) == (
                    fault in reference.detected
                )
        assert lanes.counters() == oracle.counters()


class TestGoodTraceStates:
    @settings(max_examples=25, deadline=None)
    @given(cases(), st.sampled_from(BACKENDS))
    def test_matches_step_loop(self, case, backend):
        circuit, _, sequences = case
        simulator = FaultSimulator(circuit, faults=[], backend=backend)
        assert simulator.good_trace_states(
            sequences
        ) == reference_good_states(simulator, sequences)

    def test_whole_trajectory_on_dk16(self):
        """The good machine runs the whole sequence, not one vector."""
        circuit = build_pair("dk16.ji.sd").original_circuit
        rng = make_rng(5)
        sequence = [
            [rng.randrange(2) for _ in circuit.inputs] for _ in range(20)
        ]
        simulator = FaultSimulator(circuit)
        states = simulator.good_trace_states([sequence])
        assert states == reference_good_states(simulator, [sequence])
        assert len(states) > 2
