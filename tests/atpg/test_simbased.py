"""Simulation-based (Attest-style) engine."""

import pytest

from repro._util import make_rng, random_bits
from repro.atpg import EffortBudget, SimBasedEngine, SimBasedOptions
from repro.fault import FaultSimulator


@pytest.fixture(scope="module")
def dk16_simbased(dk16_rugged):
    return SimBasedEngine(
        dk16_rugged.circuit, budget=EffortBudget.quick()
    ).run()


class TestSimBased:
    def test_decent_coverage_on_original(self, dk16_simbased):
        assert dk16_simbased.fault_coverage > 70.0

    def test_fe_equals_fc(self, dk16_simbased):
        """The engine proves no redundancy, like the paper's Attest
        rows where %FE == %FC."""
        assert dk16_simbased.fault_efficiency == pytest.approx(
            dk16_simbased.fault_coverage
        )

    def test_detections_are_real(self, dk16_rugged, dk16_simbased):
        simulator = FaultSimulator(dk16_rugged.circuit)
        claimed = [
            fault
            for fault, status in dk16_simbased.statuses.items()
            if status.state == "detected"
        ]
        report = simulator.run(
            list(dk16_simbased.test_set), faults=claimed
        )
        assert set(report.detected) == set(claimed)

    def test_trimming_keeps_sequences_short(self, dk16_simbased):
        lengths = [len(s) for s in dk16_simbased.test_set]
        assert lengths  # emitted something
        assert min(lengths) < 40  # at least some got trimmed

    def test_stall_cutoff_bounds_runtime(self, two_bit_counter):
        options = SimBasedOptions(
            batch_size=4, sequence_length=8, stall_rounds=2
        )
        result = SimBasedEngine(
            two_bit_counter,
            budget=EffortBudget.quick(),
            options=options,
        ).run()
        assert result.cpu_seconds < 30.0
        assert result.fault_coverage > 80.0


class TestRandomSequences:
    @pytest.mark.parametrize("length", [1, 7, 21, 40, 840])
    def test_bulk_draw_is_the_randrange_stream(self, length):
        """The bulk draw returns what per-bit ``randrange(2)`` returns
        and leaves the generator where per-bit draws leave it."""
        for seed in range(200):
            per_bit, bulk = make_rng(seed), make_rng(seed)
            expected = [per_bit.randrange(2) for _ in range(length)]
            assert list(random_bits(bulk, length)) == expected
            assert bulk.getstate() == per_bit.getstate()

    def test_sequences_match_per_bit_draws(self, dk16_rugged):
        options = SimBasedOptions(sequence_length=21)
        engine = SimBasedEngine(dk16_rugged.circuit, options=options)
        reference = make_rng(23)
        width = len(dk16_rugged.circuit.inputs)
        engine._rng = make_rng(23)
        for _ in range(3):
            expected = [
                [reference.randrange(2) for _ in range(width)]
                for _ in range(21)
            ]
            assert engine._random_sequence() == expected
        assert engine._rng.getstate() == reference.getstate()
