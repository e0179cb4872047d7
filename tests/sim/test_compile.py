"""Word-op compilation: plan emission, kernel generation, program cache,
dual-rail ternary path, and hash-seed stability of the emitted plans."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import make_rng
from repro.circuit import CircuitBuilder, GateType, NodeKind, ONE, X, ZERO
from repro.errors import SimulationError
from repro.sim import (
    CompiledProgram,
    TernarySimulator,
    TernaryWordProgram,
    clear_program_cache,
    compile_plan,
    compiled_program_cached,
    pack_ternary_patterns,
    unpack_ternary_word,
)
from repro.sim.compile import OPCODE_NAMES, _GATE_OPCODE

from tests.helpers import random_circuit


class TestPlan:
    def test_plan_covers_every_gate_in_topological_order(
        self, two_bit_counter
    ):
        plan = compile_plan(two_bit_counter)
        program = CompiledProgram(two_bit_counter)
        assert plan == program.plan
        gates = [
            name
            for name in program.order
            if two_bit_counter.node(name).kind is NodeKind.GATE
        ]
        assert [op[1] for op in plan] == [
            program.index[name] for name in gates
        ]
        # Every fanin slot is defined before it is read (sources are
        # pre-loaded; gate outputs must appear earlier in the plan).
        defined = set(program.source_slots)
        for opcode, out_slot, in_slots in plan:
            assert opcode in OPCODE_NAMES
            assert all(slot in defined for slot in in_slots)
            defined.add(out_slot)

    def test_all_gate_types_have_opcodes(self):
        assert set(_GATE_OPCODE) == set(GateType)


class TestKernelGeneration:
    def test_clean_and_masked_kernels_generated(self, two_bit_counter):
        program = CompiledProgram(two_bit_counter)
        assert "def _wordop_kernel(V, m):" in program.render_source()
        assert "def _wordop_masked_kernel(V, m, K, F):" in (
            program.render_source(masked=True)
        )
        # The masked kernel with identity arrays is the clean kernel.
        mask = 0b111
        clean = [0] * program.num_slots
        masked = [0] * program.num_slots
        for slot in program.input_slots:
            clean[slot] = masked[slot] = 0b101 & mask
        for slot in program.dff_out_slots:
            clean[slot] = masked[slot] = 0b011 & mask
        program.kernel(clean, mask)
        program.masked_kernel(
            masked, mask, [-1] * program.num_slots, [0] * program.num_slots
        )
        assert clean == masked

    def test_override_arrays_bake_keep_and_force(self, two_bit_counter):
        program = CompiledProgram(two_bit_counter)
        d0 = program.index["d0"]
        keep, force = program.override_arrays({d0: (0b10, 0b11)}, 0b11)
        assert keep[d0] == ~0b10
        assert force[d0] == 0b10  # forced & affected & mask
        assert all(k == -1 for i, k in enumerate(keep) if i != d0)
        assert all(f == 0 for i, f in enumerate(force) if i != d0)

    def test_source_slot_override_rejected(self, two_bit_counter):
        program = CompiledProgram(two_bit_counter)
        pi_slot = program.input_slots[0]
        with pytest.raises(SimulationError, match="not a gate slot"):
            program.override_arrays({pi_slot: (1, 1)}, 1)

    def test_out_of_range_slot_rejected(self, two_bit_counter):
        program = CompiledProgram(two_bit_counter)
        with pytest.raises(SimulationError, match="not a gate slot"):
            program.override_arrays({program.num_slots: (1, 1)}, 1)

    def test_render_source_is_deterministic(self, two_bit_counter):
        program = CompiledProgram(two_bit_counter)
        for masked in (False, True):
            assert program.render_source(masked) == program.render_source(
                masked
            )


class TestProgramCache:
    def test_cache_returns_same_program(self, two_bit_counter):
        clear_program_cache()
        first = compiled_program_cached(two_bit_counter)
        assert compiled_program_cached(two_bit_counter) is first

    def test_structural_mutation_recompiles(self):
        builder = CircuitBuilder("mutate")
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b)
        builder.output(g)
        circuit = builder.build()
        before = compiled_program_cached(circuit)
        version = circuit.structure_version
        circuit.add_gate("late", GateType.OR, [circuit.inputs[0], g])
        circuit.add_output("late")
        assert circuit.structure_version > version
        after = compiled_program_cached(circuit)
        assert after is not before
        assert len(after.plan) == len(before.plan) + 1

    def test_clear_program_cache(self, two_bit_counter):
        first = compiled_program_cached(two_bit_counter)
        clear_program_cache()
        assert compiled_program_cached(two_bit_counter) is not first


class TestTernaryPacking:
    def test_roundtrip(self):
        patterns = [[ZERO], [ONE], [X], [ONE]]
        pair = pack_ternary_patterns(patterns, 0)
        assert unpack_ternary_word(pair, 4) == [ZERO, ONE, X, ONE]

    def test_bad_value_rejected(self):
        with pytest.raises(SimulationError, match="ternary"):
            pack_ternary_patterns([[7]], 0)

    def test_overlapping_rails_rejected(self):
        with pytest.raises(SimulationError, match="dual-rail"):
            unpack_ternary_word((0b1, 0b1), 1)


class TestTernaryWordProgram:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_ternary_simulator(self, seed):
        circuit = random_circuit(seed, num_gates=14, num_dffs=2)
        word_program = TernaryWordProgram(circuit)
        reference = TernarySimulator(circuit)
        rng = make_rng(seed + 41)
        num_patterns = rng.randint(1, 16)
        mask = (1 << num_patterns) - 1
        patterns = [
            [rng.choice((ZERO, ONE, X)) for _ in circuit.inputs]
            for _ in range(num_patterns)
        ]
        state = [
            rng.choice((ZERO, ONE, X)) for _ in circuit.dff_names()
        ]
        pi_pairs = [
            pack_ternary_patterns(patterns, position)
            for position in range(len(circuit.inputs))
        ]
        state_pairs = [
            pack_ternary_patterns([[bit]] * num_patterns, 0)
            for bit in state
        ]
        po_pairs, next_pairs = word_program.step(
            pi_pairs, state_pairs, mask
        )
        po_lanes = [
            unpack_ternary_word(pair, num_patterns) for pair in po_pairs
        ]
        next_lanes = [
            unpack_ternary_word(pair, num_patterns) for pair in next_pairs
        ]
        for lane in range(num_patterns):
            po_ref, next_ref = reference.step(patterns[lane], state)
            assert tuple(v[lane] for v in po_lanes) == po_ref
            assert tuple(v[lane] for v in next_lanes) == next_ref

    def test_overlapping_input_rails_rejected(self, two_bit_counter):
        program = TernaryWordProgram(two_bit_counter)
        with pytest.raises(SimulationError, match="dual-rail"):
            program.evaluate([(1, 1)], [(0, 0), (0, 0)], 1)

    def test_pair_count_validated(self, two_bit_counter):
        program = TernaryWordProgram(two_bit_counter)
        with pytest.raises(SimulationError, match="PI rail pairs"):
            program.evaluate([], [(0, 0), (0, 0)], 1)


_HASHSEED_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.harness.suite import synthesize_named
from repro.sim import ParallelSimulator, compiled_program_cached
circuit = synthesize_named("dk16.ji.sd").circuit
program = compiled_program_cached(circuit)
for op in program.plan:
    print(op)
print(program.render_source(), end="")
print(program.render_source(masked=True), end="")
sim = ParallelSimulator(circuit)
mask = (1 << 8) - 1
vectors = [[(i >> j) & 1 for j in range(len(circuit.inputs))]
           for i in range(6)]
trace, final = sim.run(vectors, [0] * sim.num_dffs)
print(trace)
print(final)
for key, value in sorted(sim.counters().items()):
    print(key, value)
"""


class TestHashSeedStability:
    def test_plan_and_counters_are_hashseed_stable(self):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            "src",
        )
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT.format(src=src)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()
