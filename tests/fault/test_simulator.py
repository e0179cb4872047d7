"""Fault simulator: against a naive serial oracle and semantics."""

import pytest

from repro.circuit import CircuitBuilder, ONE, X, ZERO
from repro.errors import FaultError
from repro.fault import Fault, FaultSimulator, collapse_faults
from repro.fault.simulator import LaneRecord
from repro.sim import TernarySimulator
from repro._util import make_rng


def serial_detects(circuit, sequence, fault):
    """Oracle: simulate good and faulty machines separately with the
    ternary simulator, forcing the fault site by monkey-patched
    evaluation (implemented as a one-off modified circuit)."""
    faulty = circuit.copy("faulty")
    # Replace the faulty node with a constant by rewiring its readers.
    const_name = "_fault_const"
    from repro.circuit.gates import GateType

    faulty.add_gate(
        const_name,
        GateType.CONST1 if fault.stuck_at == ONE else GateType.CONST0,
        [],
    )
    faulty.rewire_readers(fault.node, const_name)
    good_sim = TernarySimulator(circuit)
    bad_sim = TernarySimulator(faulty)
    good_state = good_sim.initial_state()
    bad_state = bad_sim.initial_state()
    for vector in sequence:
        good_po, good_state = good_sim.step(vector, good_state)
        bad_po, bad_state = bad_sim.step(vector, bad_state)
        for g, b in zip(good_po, bad_po):
            if g != b and X not in (g, b):
                return True
    return False


class TestAgainstOracle:
    def test_counter_faults(self, two_bit_counter):
        simulator = FaultSimulator(two_bit_counter)
        rng = make_rng(5)
        sequence = [[rng.randrange(2)] for _ in range(12)]
        for fault in simulator.faults:
            if two_bit_counter.is_output(fault.node):
                continue  # oracle rewires readers; POs observe directly
            expected = serial_detects(two_bit_counter, sequence, fault)
            assert simulator.detects(sequence, fault) == expected, fault

    def test_synthesized_circuit_sample(self, dk16_rugged):
        circuit = dk16_rugged.circuit
        simulator = FaultSimulator(circuit)
        rng = make_rng(6)
        sequence = [
            [rng.randrange(2) for _ in circuit.inputs] for _ in range(15)
        ]
        for fault in simulator.faults[::25]:
            if circuit.is_output(fault.node):
                continue
            expected = serial_detects(circuit, sequence, fault)
            assert simulator.detects(sequence, fault) == expected, fault


class TestRunSemantics:
    def test_dropping_records_first_detection(self, two_bit_counter):
        simulator = FaultSimulator(two_bit_counter)
        sequences = [[[1]] * 6, [[1]] * 6]
        report = simulator.run(sequences)
        assert all(index == 0 for index in report.detected.values())

    def test_no_drop_reports_all(self, two_bit_counter):
        simulator = FaultSimulator(two_bit_counter)
        report = simulator.run([[[1]] * 6], drop=False)
        assert report.vectors_simulated == 6

    def test_states_traversed(self, two_bit_counter):
        simulator = FaultSimulator(two_bit_counter)
        report = simulator.run([[[1]] * 4])
        assert report.states_traversed == {
            (0, 0),
            (1, 0),
            (0, 1),
            (1, 1),
        }

    def test_x_vector_rejected(self, two_bit_counter):
        simulator = FaultSimulator(two_bit_counter)
        with pytest.raises(FaultError):
            simulator.run([[[X]]])

    def test_unknown_init_rejected(self):
        builder = CircuitBuilder("noreset")
        a = builder.input("a")
        q = builder.dff(a, init=X)
        builder.output(q)
        with pytest.raises(FaultError):
            FaultSimulator(builder.build())

    def test_state_free_simulation_accepts_none(self, two_bit_counter):
        """A pass keeps raw state words and reads good states only when
        a replay asks for them: the verdicts need none (the contract
        :meth:`detects` relies on)."""
        simulator = FaultSimulator(two_bit_counter)
        sequence = [[1]] * 6
        (record,) = simulator.simulate_batch([sequence], simulator.faults)
        assert len(record._states) == 1  # the reset state only
        report = simulator.replay(record, simulator.faults)
        assert set(report.detected) == set(record.first_steps)
        assert report.states_traversed  # the recording path still records

    def test_detects_runs_state_free(self, two_bit_counter, monkeypatch):
        simulator = FaultSimulator(two_bit_counter)
        fault = simulator.faults[0]
        seen = []
        original = LaneRecord.good_states

        def spy(record, steps):
            seen.append(steps)
            return original(record, steps)

        monkeypatch.setattr(LaneRecord, "good_states", spy)
        assert simulator.detects([[1]] * 4, fault) == (
            fault in simulator.run([[[1]] * 4], faults=[fault]).detected
        )
        assert len(seen) == 1  # the run() above, never detects()

    def test_more_than_63_faults_grouped(self, dk16_rugged):
        circuit = dk16_rugged.circuit
        simulator = FaultSimulator(circuit)
        assert len(simulator.faults) > 63
        rng = make_rng(8)
        sequences = [
            [
                [rng.randrange(2) for _ in circuit.inputs]
                for _ in range(30)
            ]
            for _ in range(10)
        ]
        report = simulator.run(sequences)
        assert report.num_detected > 100  # word grouping exercised
