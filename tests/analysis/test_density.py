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
from repro.analysis.density import merge_wave
from repro.circuit import ONE
from repro.errors import AnalysisError
from repro.logic.bdd import BddManager
from repro.logic.bddcircuit import CircuitBdds
from repro.retime.core import backward_retime, backward_retiming_sweep
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
        retimed = backward_retime(dk16_rugged.circuit, 2).circuit
        original_density = density_of_encoding(dk16_rugged.circuit)
        retimed_density = density_of_encoding(retimed)
        assert retimed_density < original_density / 50

    def test_retimed_valid_states_grow_slower_than_space(
        self, dk16_rugged
    ):
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


def direct_fixpoint(circuit):
    """The frontier fixpoint over the circuit's own registers, left in
    its full BDD manager, as ``ReachableStates`` computed it before
    compaction and lifting: the manager, the state variables, the set
    and the image count."""
    bdds = CircuitBdds(circuit)
    m = bdds.manager
    state_vars = bdds.state_variables()
    functions = [fn for _, fn in bdds.next_state_functions()]
    reached = m.cube(
        {name: int(circuit.node(name).init == ONE) for name in state_vars}
    )
    frontier = reached
    iterations = 0
    while frontier != m.FALSE:
        iterations += 1
        new = m.and_(m.range_of(functions, state_vars, frontier), m.not_(reached))
        reached = m.or_(reached, new)
        frontier = new
    return m, state_vars, reached, iterations


def assert_same_as_direct_fixpoint(circuit, lifted):
    """Same compact BDD node for node, same count, same image count."""
    m, state_vars, reached, iterations = direct_fixpoint(circuit)
    compact = BddManager(state_vars)
    root = m.transfer(reached, compact)
    ours = lifted._manager
    assert (ours._level, ours._low, ours._high) == (
        compact._level,
        compact._low,
        compact._high,
    ), circuit.name
    assert lifted._reachable == root
    report = lifted.report()
    assert report.num_valid_states == compact.satcount(root, state_vars)
    assert report.iterations == iterations, circuit.name


def all_cubes(num_dffs):
    for choices in itertools.product((None, 0, 1), repeat=num_dffs):
        yield {pos: val for pos, val in enumerate(choices) if val is not None}


class TestCompaction:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_verdicts_match_full_manager_and_oracle(self, seed):
        circuit = random_circuit(seed, num_inputs=3, num_gates=12, num_dffs=4)
        compact = ReachableStates(circuit)
        m, state_vars, reached, _ = direct_fixpoint(circuit)
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


def has_chained_wave(circuit):
    """Some register's D input is itself a wave gate: its lifted
    next-state function is the core register that gate drives."""
    wave = merge_wave(circuit)
    return wave is not None and any(
        dff.fanin[0] in wave[1] for dff in circuit.dffs()
    )


class TestLiftedReachability:
    """A retimed circuit's set, lifted from its register-merged core,
    against the frontier fixpoint over its own registers."""

    def test_table3_pairs_and_table7_rungs(self):
        """Originals have no wave and run the fixpoint directly; every
        retimed side merges into a smaller core and is lifted."""
        from repro.harness.suite import (
            TABLE3_CIRCUITS,
            TABLE7_CIRCUIT,
            build_pair,
            synthesize_named,
        )

        circuits = []
        for name in TABLE3_CIRCUITS:
            pair = build_pair(name)
            assert merge_wave(pair.original_circuit) is None
            core, _ = merge_wave(pair.retimed_circuit)
            assert core.num_dffs() < pair.retimed_circuit.num_dffs()
            circuits += [pair.original_circuit, pair.retimed_circuit]
        original = synthesize_named(TABLE7_CIRCUIT).circuit
        circuits += [
            rung.circuit for rung in backward_retiming_sweep(original, (1, 2))
        ]
        assert len(circuits) == 12
        for circuit in circuits:
            assert_same_as_direct_fixpoint(circuit, ReachableStates(circuit))

    def test_random_retimings(self):
        """400 random circuits retimed 1-3 waves deep.  Registers that
        read a wave gate (chained waves) occur, and there the lifted set
        is also checked state by state against explicit traversal."""
        chained = 0
        for seed in range(400):
            circuit = random_circuit(seed)
            for depth in (1, 2, 3):
                retimed = backward_retime(circuit, depth).circuit
                lifted = ReachableStates(retimed)
                assert_same_as_direct_fixpoint(retimed, lifted)
                if has_chained_wave(retimed):
                    chained += 1
                    explicit = explicit_valid_states(retimed)
                    assert set(lifted.enumerate()) == explicit
        assert chained >= 19
