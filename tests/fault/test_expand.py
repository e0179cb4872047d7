"""Expansion exactness: collapsed runs must report full-universe truth.

The load-bearing property: fault-simulating the analyzer's reduced
target list and expanding (``run_analyzed``) is *byte-identical* to
fault-simulating the full fault universe directly — same detected
faults, same detecting-sequence indices, same undetected order.  On
random small sequential circuits this exercises equivalence transfer,
dominance post-simulation and untestable pruning together.
"""

from hypothesis import given, settings, strategies as st

from repro.atpg.result import AtpgResult, TestSet
from repro.circuit import CircuitBuilder, ONE, ZERO
from repro.fault import (
    Fault,
    FaultSimulator,
    FaultStatus,
    analyze_faults,
    expand_result,
    full_fault_list,
)
from repro.fault.analysis import LEVEL_FULL


# ---------------------------------------------------------------------------
# Random small sequential circuit strategy.

_BINARY_OPS = ("and_", "or_", "nand", "nor", "xor", "xnor")


@st.composite
def small_circuits(draw):
    """A well-formed sequential circuit: 1-3 PIs, 0-2 DFFs, 3-8 gates."""
    num_pis = draw(st.integers(1, 3))
    num_dffs = draw(st.integers(0, 2))
    num_gates = draw(st.integers(3, 8))
    builder = CircuitBuilder("random_small")
    pool = list(builder.inputs(*[f"x{i}" for i in range(num_pis)]))
    for i in range(num_dffs):
        init = draw(st.sampled_from((ZERO, ONE)))
        pool.append(builder.dff(f"dd{i}", init=init, name=f"q{i}"))
    for j in range(num_gates):
        op = draw(st.sampled_from(_BINARY_OPS + ("not_",)))
        if op == "not_":
            fanin = [draw(st.sampled_from(pool))]
        else:
            arity = draw(st.integers(2, 3))
            fanin = [
                draw(st.sampled_from(pool)) for _ in range(arity)
            ]
        pool.append(getattr(builder, op)(*fanin, name=f"g{j}"))
    for i in range(num_dffs):
        builder.buf(draw(st.sampled_from(pool)), name=f"dd{i}")
    num_outputs = draw(st.integers(1, min(3, len(pool))))
    for name in pool[-num_outputs:]:
        builder.output(name)
    circuit = builder.build(check=False)
    circuit.check()
    return circuit


@st.composite
def sequences_for(draw, circuit):
    width = len(circuit.inputs)
    vector = st.lists(
        st.sampled_from((ZERO, ONE)), min_size=width, max_size=width
    )
    sequence = st.lists(vector, min_size=1, max_size=5)
    return draw(st.lists(sequence, min_size=1, max_size=4))


@st.composite
def circuit_and_tests(draw):
    circuit = draw(small_circuits())
    return circuit, draw(sequences_for(circuit))


class TestRunAnalyzedProperty:
    @settings(max_examples=40, deadline=None)
    @given(circuit_and_tests())
    def test_expansion_matches_full_simulation(self, case):
        circuit, sequences = case
        analysis = analyze_faults(circuit, level=LEVEL_FULL)
        expanded = FaultSimulator(circuit).run_analyzed(
            sequences, analysis
        )
        direct = FaultSimulator(
            circuit, faults=full_fault_list(circuit)
        ).run(sequences)
        assert expanded.detected == direct.detected
        assert expanded.undetected == direct.undetected

    @settings(max_examples=15, deadline=None)
    @given(circuit_and_tests())
    def test_untestable_classes_never_detected(self, case):
        circuit, sequences = case
        analysis = analyze_faults(circuit, level=LEVEL_FULL)
        report = FaultSimulator(circuit).run_analyzed(
            sequences, analysis
        )
        for rep in analysis.untestable:
            for fault in analysis.members_of(rep):
                assert fault not in report.detected


class TestRunAnalyzedExplicit:
    def _chain(self):
        builder = CircuitBuilder("and_chain")
        a, b, c = builder.inputs("a", "b", "c")
        g1 = builder.and_(a, b, name="g1")
        builder.output(builder.and_(g1, c, name="y"))
        return builder.build()

    def test_dropped_fault_detection_is_measured(self):
        circuit = self._chain()
        analysis = analyze_faults(circuit, level=LEVEL_FULL)
        dropped = Fault("g1", ONE)
        assert analysis.class_of[dropped] in analysis.dominated
        # One vector a=1 b=0 c=1: good y=0; g1/sa1 flips y -> detected.
        report = FaultSimulator(circuit).run_analyzed(
            [[[ONE, ZERO, ONE]]], analysis
        )
        assert report.detected[dropped] == 0

    def test_dropped_pass_charged_to_events(self):
        circuit = self._chain()
        analysis = analyze_faults(circuit, level=LEVEL_FULL)
        sequences = [[[ONE, ONE, ONE]]]
        dropped = [
            rep
            for rep in analysis.equiv_representatives
            if rep in analysis.dominated
        ]
        assert dropped
        simulator = FaultSimulator(circuit)
        simulator.run_analyzed(sequences, analysis)
        # sim.events holds the representatives' pass plus the
        # dominance-dropped representatives' pass.
        reps = FaultSimulator(circuit)
        reps.run(sequences, faults=analysis.representatives)
        dropped_pass = FaultSimulator(circuit)
        dropped_pass.run(sequences, faults=dropped)
        assert dropped_pass.events > 0
        assert simulator.events == reps.events + dropped_pass.events


class TestExpandResult:
    def test_statuses_cover_universe_with_untestable(self):
        builder = CircuitBuilder("deadwood")
        a, b = builder.inputs("a", "b")
        builder.and_(a, b, name="dead")
        builder.output(builder.not_(a, name="y"))
        circuit = builder.build(check=False)
        circuit.check()
        analysis = analyze_faults(circuit, level=LEVEL_FULL)
        statuses = {
            fault: FaultStatus(fault, state="detected", detected_by=0)
            for fault in analysis.representatives
        }
        engine_result = AtpgResult(
            circuit_name=circuit.name,
            engine="fake",
            statuses=statuses,
            test_set=TestSet(sequences=[[[ONE, ZERO]]]),
            cpu_seconds=0.0,
            checkpoints=[],
            states_traversed=set(),
        )
        expanded = expand_result(engine_result, analysis, circuit)
        assert set(expanded.statuses) == set(analysis.all_faults)
        summary = expanded.summary()
        assert summary.total == len(analysis.all_faults)
        assert summary.untestable == sum(
            len(analysis.members_of(rep)) for rep in analysis.untestable
        )
        counters = expanded.counters()
        assert counters["cover.faults_total"] == summary.total
        assert counters["cover.faults_untestable"] == summary.untestable
        assert counters["collapse.representatives"] == len(
            analysis.representatives
        )
        # Untestable faults count toward efficiency, never coverage.
        assert expanded.fault_efficiency >= expanded.fault_coverage

    def test_delegates_engine_surface(self):
        """The expanded result is the engine's own result with three
        fields widened: every other field is the engine's, and the
        ``atpg.*`` outcome counters keep counting the engine's records
        while ``cover.*`` counts the full universe."""
        builder = CircuitBuilder("tiny")
        a = builder.input("a")
        builder.output(builder.not_(a, name="y"))
        circuit = builder.build()
        analysis = analyze_faults(circuit, level=LEVEL_FULL)
        record = {
            "fault": "a/0",
            "order": 0,
            "outcome": "aborted",
            "provenance": "targeted",
            "abort_reason": "backtrack-limit",
            "detected_by": None,
            "backtracks": 7,
            "frames": 2,
            "sim_events": 0,
            "cpu_seconds": 1.5,
        }
        engine_result = AtpgResult(
            circuit_name="tiny",
            engine="fake",
            statuses={},
            test_set=TestSet(),
            cpu_seconds=1.5,
            checkpoints=[],
            states_traversed={(0,)},
            fault_records=[record],
        )
        expanded = expand_result(engine_result, analysis, circuit)
        assert type(expanded) is AtpgResult
        assert expanded.circuit_name == "tiny"
        assert expanded.engine == "fake"
        assert expanded.cpu_seconds == 1.5
        assert expanded.backtracks == 7
        assert expanded.frames_expanded == 2
        assert expanded.states_traversed == {(0,)}
        assert len(expanded.test_set) == 0
        assert set(expanded.statuses) == set(analysis.all_faults)
        assert expanded.fault_records[0]["collapse_level"] == LEVEL_FULL
        counters = expanded.counters()
        assert counters["atpg.faults_total"] == 1
        assert counters["atpg.faults_aborted"] == 1
        assert counters["atpg.backtracks"] == 7
        assert counters["cover.faults_total"] == len(analysis.all_faults)
        assert counters["sim.expansion_events"] == 0
        assert counters["collapse.faults_total"] == len(analysis.all_faults)
        # The engine's own result is left as it was.
        assert engine_result.statuses == {}
        assert "cover.faults_total" not in engine_result.counters()
