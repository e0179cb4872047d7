"""Batching invariance: the lane bound is pure scheduling.

How many sequence × fault machines share one pass (the lane bound,
chunking by sequence and splitting fault lists) must never change
*what* is detected, nor any counter: every ``sim.*`` counter is charged
by the fixed 63-wide group schedule, whatever the packing.  Bound 2
runs one machine pair per pass, 65 splits the dk16 fault list, and
4096 packs several sequences per pass.
"""

import pytest

from repro._util import make_rng
from repro.fault import FaultSimulator
from repro.fault import simulator as simulator_module
from repro.fault.analysis import LEVEL_FULL, analyze_faults

from tests.fault.reference import reference_run
from tests.helpers import random_circuit

BOUNDS = (2, 65, 4096)


def _sequences(circuit, seed, num_sequences=6, length=12):
    rng = make_rng(seed)
    return [
        [
            [rng.randrange(2) for _ in circuit.inputs]
            for _ in range(length)
        ]
        for _ in range(num_sequences)
    ]


def _report_core(report):
    return (
        list(report.detected.items()),
        report.undetected,
        report.coverage_percent(),
        report.vectors_simulated,
        report.states_traversed,
    )


def _run_at_bounds(make_simulator, call):
    """``call(simulator)`` at every lane bound; returns the report cores
    with each run's counters."""
    results = []
    for bound in BOUNDS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator_module, "LANE_BOUND", bound)
            simulator = make_simulator()
            core = _report_core(call(simulator))
        results.append((core, simulator.counters()))
    return results


class TestRunInvariance:
    @pytest.mark.parametrize("drop", [True, False])
    def test_width_and_regroup_invariant(self, dk16_rugged, drop):
        """Every lane bound reproduces the group loop exactly."""
        circuit = dk16_rugged.circuit
        sequences = _sequences(circuit, seed=3)
        oracle = FaultSimulator(circuit)
        assert len(oracle.faults) > 63
        expected = (
            _report_core(reference_run(oracle, sequences, drop=drop)),
            oracle.counters(),
        )
        results = _run_at_bounds(
            lambda: FaultSimulator(circuit),
            lambda simulator: simulator.run(sequences, drop=drop),
        )
        assert results == [expected] * len(BOUNDS)

    def test_random_circuits_invariant(self):
        for seed in (11, 12, 13):
            circuit = random_circuit(seed, num_gates=18, num_dffs=3)
            sequences = _sequences(circuit, seed=seed + 100)
            results = _run_at_bounds(
                lambda: FaultSimulator(circuit),
                lambda simulator: simulator.run(sequences),
            )
            assert len(set(map(repr, results))) == 1


class TestRunAnalyzedInvariance:
    def test_width_and_regroup_invariant(self, dk16_rugged):
        circuit = dk16_rugged.circuit
        analysis = analyze_faults(circuit, level=LEVEL_FULL)
        sequences = _sequences(circuit, seed=5, num_sequences=4)
        results = _run_at_bounds(
            lambda: FaultSimulator(circuit),
            lambda simulator: simulator.run_analyzed(sequences, analysis),
        )
        assert len(set(map(repr, results))) == 1


class TestSchedulingKnobs:
    def test_default_width_is_63(self, dk16_rugged):
        """Counters are charged in 63-wide groups: a pass holding the
        whole fault list charges what the group loop spends."""
        circuit = dk16_rugged.circuit
        sequences = _sequences(circuit, seed=7, num_sequences=2)
        assert simulator_module.MAX_GROUP_WIDTH == 63
        lanes = FaultSimulator(circuit)
        assert len(lanes.faults) + 1 <= simulator_module.LANE_BOUND
        lanes.run(sequences)
        oracle = FaultSimulator(circuit)
        reference_run(oracle, sequences)
        assert lanes.counters() == oracle.counters()


class TestSingleFaultStepperCache:
    """detects() reuses a cached bound stepper per single fault — a
    pure perf move: results and every deterministic counter must match
    a fresh-bind-per-call simulator exactly, on both backends."""

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_repeated_detects_matches_fresh_binds(
        self, dk16_rugged, backend
    ):
        circuit = dk16_rugged.circuit
        sequences = _sequences(circuit, seed=21, num_sequences=5)
        cached = FaultSimulator(circuit, backend=backend)
        faults = cached.faults[:8]

        # Oracle: a fresh simulator per call can never share a stepper.
        fresh_results = []
        fresh_totals = dict.fromkeys(cached.counters(), 0)
        for fault in faults:
            for sequence in sequences:
                oracle = FaultSimulator(
                    circuit, faults=faults, backend=backend
                )
                fresh_results.append(oracle.detects(sequence, fault))
                for key, value in oracle.counters().items():
                    fresh_totals[key] += value

        cached_results = [
            cached.detects(sequence, fault)
            for fault in faults
            for sequence in sequences
        ]
        assert cached_results == fresh_results
        assert any(cached_results)  # the oracle must exercise hits
        assert cached.counters() == fresh_totals
        # The cache actually engaged: one stepper per distinct fault.
        assert len(cached._single_steppers) == len(faults)

    def test_detects_interleaved_with_run_stays_invariant(
        self, dk16_rugged
    ):
        """Mixing group runs and cached single-fault detects leaves the
        batch reports untouched."""
        circuit = dk16_rugged.circuit
        sequences = _sequences(circuit, seed=23)
        reference = _report_core(FaultSimulator(circuit).run(sequences))

        mixed = FaultSimulator(circuit)
        fault = mixed.faults[0]
        for sequence in sequences:
            mixed.detects(sequence, fault)
        assert _report_core(mixed.run(sequences)) == reference
