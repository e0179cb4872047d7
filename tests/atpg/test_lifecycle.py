"""Fault-lifecycle records: partition soundness across the engines.

The observatory's load-bearing claim: an engine run resolves *every*
fault on its target list into exactly one lifecycle record — detected
(targeted or incidental), redundant, or aborted with a taxonomy
reason — while the analyzer's untestable classes never reach the
target list at all.  Together the four buckets partition the
collapsed universe at every collapse level and under both simulation
backends.
"""

import pytest
from hypothesis import given, settings

from repro.atpg import EffortBudget, HitecEngine, SimBasedEngine, get_engine
from repro.fault import analyze_faults
from repro.fault.analysis import LEVELS
from repro.obs.coverage import (
    ABORT_REASONS,
    INCIDENTAL_PROVENANCES,
    PROV_FAULT_DROP,
    PROV_TARGETED,
)
from repro.sim.parallel import BACKENDS

from tests.fault.test_expand import small_circuits


def assert_records_partition_targets(records, targets):
    """One record per target; outcomes and provenance are coherent."""
    assert sorted(r["fault"] for r in records) == sorted(
        str(fault) for fault in targets
    )
    assert [r["order"] for r in records] == list(range(len(records)))
    for record in records:
        outcome = record["outcome"]
        assert outcome in ("detected", "redundant", "aborted")
        if outcome == "aborted":
            assert record["abort_reason"] in ABORT_REASONS
            assert record["detected_by"] is None
        else:
            assert record["abort_reason"] is None
        if outcome == "detected":
            assert isinstance(record["detected_by"], int)
            assert record["provenance"] in (
                (PROV_TARGETED,) + INCIDENTAL_PROVENANCES
            )
        else:
            assert record["provenance"] == PROV_TARGETED
        assert record["backtracks"] >= 0
        assert record["frames"] >= 0
        assert record["sim_events"] >= 0
        assert record["cpu_seconds"] >= 0.0


class TestPartitionProperty:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=10, deadline=None)
    @given(circuit=small_circuits())
    def test_hitec_records_partition_target_list(
        self, level, backend, circuit
    ):
        analysis = analyze_faults(circuit, level=level)
        # Untestable classes are pruned before targeting, never during.
        assert not set(analysis.untestable) & set(analysis.representatives)
        result = HitecEngine(
            circuit,
            budget=EffortBudget.quick(),
            sim_backend=backend,
        ).run(analysis.representatives)
        assert_records_partition_targets(
            result.fault_records, analysis.representatives
        )
        # The counter block tallies exactly the records.
        block = result.counters()
        if analysis.representatives:
            detected = (
                block["lifecycle.detected_targeted"]
                + block["lifecycle.detected_incidental"]
            )
            aborted = sum(
                block[
                    "lifecycle.aborted_" + reason.replace("-", "_")
                ]
                for reason in ABORT_REASONS
            )
            redundant = sum(
                1
                for r in result.fault_records
                if r["outcome"] == "redundant"
            )
            assert detected + aborted + redundant == len(
                analysis.representatives
            )


def assert_book_invariants(result):
    """Every outcome an engine reports is read off its fault records."""
    records = result.fault_records
    for checkpoint in result.checkpoints:
        prefix = records[: checkpoint.processed]
        assert checkpoint.detected == sum(
            r["outcome"] == "detected" for r in prefix
        )
        assert checkpoint.redundant == sum(
            r["outcome"] == "redundant" for r in prefix
        )
        assert checkpoint.total == len(result.statuses)
    counters = result.counters()
    assert counters["atpg.faults_total"] == len(records)
    for outcome in ("detected", "redundant", "aborted"):
        count = sum(r["outcome"] == outcome for r in records)
        assert counters["atpg.faults_" + outcome] == count
    for key, field in (
        ("atpg.backtracks", "backtracks"),
        ("atpg.frames_expanded", "frames"),
    ):
        total = sum(r[field] for r in records)
        assert counters[key] == total
    # A detecting record closes after its fault-drop pass and right
    # before the records of the faults its test dropped.
    owner = None
    for record in records:
        if record["provenance"] == PROV_FAULT_DROP:
            assert owner is not None
            assert owner["outcome"] == "detected"
            assert owner["provenance"] == PROV_TARGETED
            assert owner["detected_by"] == record["detected_by"]
        else:
            owner = record


class TestEngineRecords:
    @pytest.mark.parametrize("side", ["original", "retimed"])
    @pytest.mark.parametrize("engine", ["hitec", "sest", "simbased"])
    def test_outcomes_are_read_from_records(self, engine, side):
        from repro.harness.config import HarnessConfig
        from repro.harness.suite import build_pair

        pair = build_pair("dk16.ji.sd")
        circuit = getattr(pair, side + "_circuit")
        result = get_engine(
            engine, circuit, budget=HarnessConfig.quick().budget
        ).run()
        assert_records_partition_targets(
            result.fault_records, list(result.statuses)
        )
        assert_book_invariants(result)
        if engine != "simbased":
            assert any(
                r["provenance"] == PROV_FAULT_DROP
                for r in result.fault_records
            )

    def test_hitec_statuses_agree_with_records(self, two_bit_counter):
        result = HitecEngine(
            two_bit_counter, budget=EffortBudget.quick()
        ).run()
        by_fault = {r["fault"]: r for r in result.fault_records}
        assert set(by_fault) == {
            str(fault) for fault in result.statuses
        }
        for fault, status in result.statuses.items():
            record = by_fault[str(fault)]
            assert record["outcome"] == status.state
            if status.state == "detected":
                assert record["detected_by"] == status.detected_by

    def test_sest_emits_records_too(self, two_bit_counter):
        result = HitecEngine(
            two_bit_counter, budget=EffortBudget.quick(), learning=True
        ).run()
        assert result.engine == "sest"
        assert result.fault_records

    def test_simbased_open_faults_abort_with_reason(self, toggle_circuit):
        result = SimBasedEngine(
            toggle_circuit, budget=EffortBudget.quick()
        ).run()
        by_fault = {r["fault"]: r for r in result.fault_records}
        assert set(by_fault) == {
            str(fault) for fault in result.statuses
        }
        for record in result.fault_records:
            if record["outcome"] == "aborted":
                assert record["abort_reason"] in ABORT_REASONS
