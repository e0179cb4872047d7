"""Differential oracle: compiled word-op kernels vs the reference
interpreter.

The compiled path must be a pure perf move — every word it produces, on
random sequential circuits, random packed patterns and random stuck-at
override maps, must be byte-identical to the retained plan interpreter
(and the good-machine state traversal of the fault simulator must agree
too).  The overflow and X-value error paths must also be identical in
kind on both backends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import make_rng
from repro.circuit import ONE, X, ZERO
from repro.errors import FaultError, SimulationError
from repro.fault import FaultSimulator
from repro.sim import WORD_BITS, ParallelSimulator, pack_patterns

from tests.helpers import random_circuit


def _paired_simulators(circuit):
    return (
        ParallelSimulator(circuit, backend="compiled"),
        ParallelSimulator(circuit, backend="interpreted"),
    )


def _random_overrides(circuit, sim, rng, mask):
    """A random stuck-at override map over gate and source slots."""
    overrides = {}
    names = list(circuit.node_names())
    for name in rng.sample(names, min(len(names), rng.randint(0, 4))):
        affected = rng.randrange(1 << WORD_BITS) & mask
        forced = rng.randrange(1 << WORD_BITS)
        overrides[sim.node_index(name)] = (affected, forced)
    return overrides


class TestDifferentialOracle:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_step_agrees_under_random_overrides(self, seed):
        circuit = random_circuit(seed, num_gates=16, num_dffs=3)
        compiled, interpreted = _paired_simulators(circuit)
        rng = make_rng(seed * 31 + 1)
        num_patterns = rng.randint(1, WORD_BITS)
        mask = (1 << num_patterns) - 1
        patterns = [
            [rng.randrange(2) for _ in circuit.inputs]
            for _ in range(num_patterns)
        ]
        pi_words = [
            pack_patterns(patterns, position)
            for position in range(len(circuit.inputs))
        ]
        state_words = [
            rng.randrange(1 << num_patterns)
            for _ in range(compiled.num_dffs)
        ]
        overrides = _random_overrides(circuit, compiled, rng, mask)
        values_c = compiled.evaluate(pi_words, state_words, mask, overrides)
        values_i = interpreted.evaluate(
            pi_words, state_words, mask, overrides
        )
        assert values_c == values_i  # every slot, not just the POs
        po_c, next_c = compiled.step(pi_words, state_words, mask, overrides)
        po_i, next_i = interpreted.step(
            pi_words, state_words, mask, overrides
        )
        assert po_c == po_i
        assert next_c == next_i

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_run_traces_agree(self, seed):
        circuit = random_circuit(seed, num_gates=14, num_dffs=2)
        compiled, interpreted = _paired_simulators(circuit)
        rng = make_rng(seed * 17 + 3)
        vectors = [
            [rng.randrange(2) for _ in circuit.inputs]
            for _ in range(rng.randint(1, 12))
        ]
        initial = [rng.randrange(2) for _ in range(compiled.num_dffs)]
        mask = (1 << WORD_BITS) - 1
        overrides = _random_overrides(circuit, compiled, rng, mask)
        trace_c, final_c = compiled.run(vectors, initial, overrides)
        trace_i, final_i = interpreted.run(vectors, initial, overrides)
        assert trace_c == trace_i
        assert final_c == final_i

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_fault_reports_and_good_states_agree(self, seed):
        circuit = random_circuit(seed, num_gates=14, num_dffs=2)
        sims = [
            FaultSimulator(circuit, backend=backend)
            for backend in ("compiled", "interpreted")
        ]
        rng = make_rng(seed * 13 + 5)
        sequences = [
            [
                [rng.randrange(2) for _ in circuit.inputs]
                for _ in range(rng.randint(1, 10))
            ]
            for _ in range(3)
        ]
        reports = [sim.run(sequences) for sim in sims]
        assert reports[0].detected == reports[1].detected
        assert reports[0].undetected == reports[1].undetected
        assert (
            reports[0].states_traversed == reports[1].states_traversed
        )
        assert sims[0].good_trace_states(sequences) == sims[
            1
        ].good_trace_states(sequences)


class TestErrorPaths:
    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_65_pattern_overflow(self, backend, two_bit_counter):
        patterns = [[0] for _ in range(WORD_BITS + 1)]
        with pytest.raises(SimulationError, match="cannot pack"):
            pack_patterns(patterns, 0)
        # The simulator itself rejects malformed word counts the same
        # way on both backends.
        sim = ParallelSimulator(two_bit_counter, backend=backend)
        with pytest.raises(SimulationError, match="PI words"):
            sim.evaluate([0, 0], [0, 0], 1)

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_x_vector_rejected_identically(self, backend, two_bit_counter):
        sim = FaultSimulator(two_bit_counter, backend=backend)
        with pytest.raises(FaultError, match="fully specified"):
            sim.run([[[X]]])

    def test_x_value_rejected_at_packing(self):
        with pytest.raises(SimulationError, match="fully specified"):
            pack_patterns([[X]], 0)

    def test_unknown_backend_rejected(self, two_bit_counter):
        with pytest.raises(SimulationError, match="unknown simulation"):
            ParallelSimulator(two_bit_counter, backend="numpy")
        with pytest.raises(SimulationError, match="unknown simulation"):
            FaultSimulator(two_bit_counter, backend="numpy")


class TestCounterParity:
    def test_backends_emit_identical_effort_counters(self, two_bit_counter):
        reports = {}
        counters = {}
        for backend in ("compiled", "interpreted"):
            sim = FaultSimulator(two_bit_counter, backend=backend)
            reports[backend] = sim.run([[[1]] * 6, [[0], [1], [1]]])
            counters[backend] = sim.counters()
        assert counters["compiled"] == counters["interpreted"]
        assert (
            reports["compiled"].detected == reports["interpreted"].detected
        )
