"""Valid states / density of encoding, BDD engine vs explicit oracle."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    ReachableStates,
    density_of_encoding,
    explicit_valid_states,
    reachability_report,
    reachable_states,
)
from repro.circuit import ONE
from repro.errors import AnalysisError
from repro.logic.bddcircuit import CircuitBdds
from repro.sim.compile import clear_program_cache
from tests.helpers import random_circuit


class TestSmallCircuits:
    def test_counter_reaches_everything(self, two_bit_counter):
        report = reachability_report(two_bit_counter)
        assert report.num_valid_states == 4
        assert report.density_of_encoding == 1.0

    def test_toggle(self, toggle_circuit):
        assert reachability_report(toggle_circuit).num_valid_states == 2

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=30, deadline=None)
    def test_bdd_matches_explicit_bfs(self, seed):
        circuit = random_circuit(seed, num_inputs=3, num_gates=10, num_dffs=3)
        explicit = explicit_valid_states(circuit)
        engine = ReachableStates(circuit)
        assert engine.count() == len(explicit)
        assert set(engine.enumerate()) == explicit
        for state in explicit:
            assert engine.contains(state)


class TestBenchmarks:
    def test_dk16_density_matches_paper(self, dk16_rugged):
        """27 valid states of 32: density 0.84, the paper's Table 6."""
        report = reachability_report(dk16_rugged.circuit)
        assert report.num_valid_states == 27
        assert report.total_states == 32
        assert report.density_of_encoding == pytest.approx(0.84, abs=0.01)

    def test_s820_density(self, s820_rugged):
        report = reachability_report(s820_rugged.circuit)
        assert report.num_valid_states == 25
        assert report.density_of_encoding == pytest.approx(
            25 / 32, abs=0.01
        )

    def test_retiming_collapses_density(self, dk16_rugged):
        from repro.retime.core import backward_retime

        retimed = backward_retime(dk16_rugged.circuit, 2).circuit
        original_density = density_of_encoding(dk16_rugged.circuit)
        retimed_density = density_of_encoding(retimed)
        assert retimed_density < original_density / 50

    def test_retimed_valid_states_grow_slower_than_space(
        self, dk16_rugged
    ):
        from repro.retime.core import backward_retime

        retimed = backward_retime(dk16_rugged.circuit, 2).circuit
        original = reachability_report(dk16_rugged.circuit)
        after = reachability_report(retimed)
        assert after.num_valid_states >= original.num_valid_states
        growth_valid = after.num_valid_states / original.num_valid_states
        growth_space = after.total_states / original.total_states
        assert growth_valid < growth_space


class TestGuards:
    def test_unknown_reset_rejected(self):
        from repro.circuit import CircuitBuilder, X

        builder = CircuitBuilder("noreset")
        a = builder.input("a")
        q = builder.dff(a, init=X)
        builder.output(q)
        with pytest.raises(AnalysisError):
            ReachableStates(builder.build())

    def test_explicit_bfs_input_cap(self, dk16_rugged):
        # dk16 has 4 inputs -> fine; fabricate too-wide circuit check
        from repro.circuit import CircuitBuilder, ZERO

        builder = CircuitBuilder("wide")
        inputs = [builder.input(f"x{i}") for i in range(15)]
        q = builder.dff(inputs[0], init=ZERO)
        builder.output(q)
        with pytest.raises(AnalysisError):
            explicit_valid_states(builder.build())


def uncompacted_fixpoint(circuit):
    """The reachable set left in the circuit's full BDD manager, as
    ``ReachableStates`` computed it before compaction."""
    bdds = CircuitBdds(circuit)
    m = bdds.manager
    state_vars = bdds.state_variables()
    functions = [fn for _, fn in bdds.next_state_functions()]
    reached = m.cube(
        {name: int(circuit.node(name).init == ONE) for name in state_vars}
    )
    frontier = reached
    while frontier != m.FALSE:
        new = m.and_(m.range_of(functions, state_vars, frontier), m.not_(reached))
        reached = m.or_(reached, new)
        frontier = new
    return m, state_vars, reached


def all_cubes(num_dffs):
    for choices in itertools.product((None, 0, 1), repeat=num_dffs):
        yield {pos: val for pos, val in enumerate(choices) if val is not None}


class TestCompaction:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_verdicts_match_full_manager_and_oracle(self, seed):
        circuit = random_circuit(seed, num_inputs=3, num_gates=12, num_dffs=4)
        compact = ReachableStates(circuit)
        m, state_vars, reached = uncompacted_fixpoint(circuit)
        explicit = explicit_valid_states(circuit)
        assert compact.count() == m.satcount(reached, state_vars) == len(explicit)
        for state in itertools.product((0, 1), repeat=4):
            full = m.evaluate(reached, dict(zip(state_vars, state)))
            assert compact.contains(state) == bool(full) == (state in explicit)
        for cube in all_cubes(4):
            literals = {state_vars[pos]: val for pos, val in cube.items()}
            full = m.and_(reached, m.cube(literals)) != m.FALSE
            oracle = any(
                all(state[pos] == val for pos, val in cube.items())
                for state in explicit
            )
            assert compact.intersects(cube) == full == oracle

    def test_memoized_set_keeps_only_its_cone(self, dk16_rugged):
        circuit = dk16_rugged.circuit
        reachable = reachable_states(circuit)
        assert reachable_states(circuit) is reachable
        assert not any(
            isinstance(value, CircuitBdds) for value in vars(reachable).values()
        )
        manager = reachable._manager
        assert manager.variables == tuple(circuit.dff_names())
        cone, stack = set(), [reachable._reachable]
        while stack:
            node = stack.pop()
            if node in (manager.FALSE, manager.TRUE) or node in cone:
                continue
            cone.add(node)
            stack += [manager._low[node], manager._high[node]]
        assert manager.num_nodes() == 2 + len(cone)

    def test_mutation_rebuilds(self, two_bit_counter):
        circuit = two_bit_counter.copy()
        first = reachable_states(circuit)
        circuit.set_init(circuit.dff_names()[0], ONE)
        assert reachable_states(circuit) is not first

    def test_clear_program_cache_drops_the_memo(self, two_bit_counter):
        first = reachable_states(two_bit_counter)
        clear_program_cache()
        assert reachable_states(two_bit_counter) is not first


class TestOneFixpointPerCircuit:
    def test_engines_and_lint_share_one_fixpoint(self, monkeypatch):
        """HITEC then SEST on the dk16 pair: lint's DRC106, both
        engines' classifiers and the post-synthesis gate all read one
        fixpoint per circuit; each cache reset pays for it again."""
        from repro.analysis import density
        from repro.harness import suite
        from repro.harness.atpg_tables import run_pair
        from repro.harness.config import HarnessConfig

        built = []
        original = density.ReachableStates

        def counting(circuit):
            built.append(circuit)
            return original(circuit)

        monkeypatch.setattr(density, "ReachableStates", counting)
        config = dataclasses.replace(HarnessConfig.quick(), max_faults=12)

        def run_both_engines():
            built.clear()
            for engine in ("hitec", "sest"):
                run = run_pair("dk16.ji.sd", engine, config)
            pair = (run.pair.original_circuit, run.pair.retimed_circuit)
            assert sorted(map(id, built)) == sorted(map(id, pair))
            return pair

        suite.clear_caches()
        first = run_both_engines()
        suite.clear_caches()
        second = run_both_engines()
        assert second[0] is not first[0]
        clear_program_cache()
        third = run_both_engines()
        assert third[0] is second[0]
