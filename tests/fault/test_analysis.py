"""Static fault analysis: dominance, checkpoints, untestable proofs."""

import os
import subprocess
import sys

import pytest

from repro.circuit import CircuitBuilder, ONE, ZERO
from repro.errors import FaultError
from repro.fault import (
    Fault,
    analyze_faults,
    analyze_faults_cached,
    clear_analysis_cache,
    full_fault_list,
)
from repro.fault.analysis import (
    LEVEL_EQUIV,
    LEVEL_FULL,
    checkpoint_nodes,
    dominance_drops,
    fanout_free_regions,
    untestable_faults,
)


@pytest.fixture
def and_chain():
    """y = (a AND b) AND c — fanout-free, all interior lines droppable."""
    builder = CircuitBuilder("and_chain")
    a, b, c = builder.inputs("a", "b", "c")
    g1 = builder.and_(a, b, name="g1")
    y = builder.and_(g1, c, name="y")
    builder.output(y)
    return builder.build()


class TestFaultListOrdering:
    def test_sorted_by_site(self, two_bit_counter):
        faults = full_fault_list(two_bit_counter)
        assert faults == sorted(faults)

    def test_order_is_name_derived_not_hash_derived(self, two_bit_counter):
        # Same circuit, two enumerations: identical lists object-for-
        # object regardless of interning or insertion history.
        assert full_fault_list(two_bit_counter) == full_fault_list(
            two_bit_counter
        )


class TestCheckpoints:
    def test_pis_dffs_and_stems(self, two_bit_counter):
        points = checkpoint_nodes(two_bit_counter)
        assert "enable" in points  # PI
        assert {"q0", "q1"} <= points  # DFF outputs
        # q0 feeds d0's XOR, the carry AND and a PO: a stem (already a
        # checkpoint as a DFF); enable feeds two gates: a stem too.
        assert "d1" not in points  # single-reader interior line

    def test_fanout_free_chain_has_no_interior_checkpoints(self, and_chain):
        points = checkpoint_nodes(and_chain)
        assert points == {"a", "b", "c"}


class TestFanoutFreeRegions:
    def test_chain_is_one_region(self, and_chain):
        heads = fanout_free_regions(and_chain)
        assert heads["g1"] == "y"
        assert heads["a"] == "y"
        assert heads["y"] == "y"

    def test_stem_bounds_region(self, two_bit_counter):
        heads = fanout_free_regions(two_bit_counter)
        # enable branches: it heads its own (trivial) region.
        assert heads["enable"] == "enable"


class TestDominance:
    def test_and_gate_output_fault_dropped(self, and_chain):
        drops = dominance_drops(and_chain)
        # AND output sa1 is dominated by a fanout-free input's sa1.
        assert Fault("g1", ONE) in drops
        assert drops[Fault("g1", ONE)] == Fault("a", ONE)
        assert Fault("y", ONE) in drops
        # The controlled-side output fault (sa0) is never dropped.
        assert Fault("g1", ZERO) not in drops

    def test_xor_gate_never_dropped(self, half_adder):
        drops = dominance_drops(half_adder)
        assert all(fault.node != "s" for fault in drops)
        xor_nodes = {
            node.name
            for node in half_adder.nodes()
            if node.kind.name == "GATE" and node.gate.name.startswith("X")
        }
        assert not any(fault.node in xor_nodes for fault in drops)

    def test_po_fanin_is_not_a_witness(self):
        # The AND's only fanin that is fanout-free is also a PO: no
        # witness, so the output fault must stay on the list.
        builder = CircuitBuilder("po_fanin")
        a, b = builder.inputs("a", "b")
        t = builder.and_(a, b, name="t")
        y = builder.and_(t, a, name="y")
        builder.outputs(t=t, y=y)
        circuit = builder.build()
        drops = dominance_drops(circuit)
        # t is a PO and a stem; a is a stem; b is fanout-free non-PO.
        assert drops.get(Fault("t", ONE)) == Fault("b", ONE)
        assert Fault("y", ONE) not in drops


class TestUntestable:
    def test_constant_line_unexcitable(self):
        builder = CircuitBuilder("const_net")
        a = builder.input("a")
        one = builder.const1(name="tied")
        y = builder.and_(a, one, name="y")
        builder.output(y)
        proofs = untestable_faults(builder.build())
        assert Fault("tied", ONE) in proofs
        assert "unexcitable" in proofs[Fault("tied", ONE)]
        # The sa0 fault on a provably-1 line is very much testable.
        assert Fault("tied", ZERO) not in proofs

    def test_unobservable_node(self):
        builder = CircuitBuilder("deadwood")
        a, b = builder.inputs("a", "b")
        builder.and_(a, b, name="dead")
        builder.output(builder.not_(a, name="y"))
        proofs = untestable_faults(builder.build(check=False))
        assert "unobservable" in proofs[Fault("dead", ZERO)]
        assert "unobservable" in proofs[Fault("dead", ONE)]
        assert Fault("y", ZERO) not in proofs


class TestAnalyzeFaults:
    def test_rejects_unknown_level(self, two_bit_counter):
        with pytest.raises(FaultError):
            analyze_faults(two_bit_counter, level="everything")

    def test_full_level_strictly_smaller_on_suite(
        self, dk16_rugged, s820_rugged
    ):
        # The quick preset's Table 2 circuits: the acceptance criterion
        # is a *strictly* smaller target list at the full level.
        for synth in (dk16_rugged, s820_rugged):
            equiv = analyze_faults(synth.circuit, level=LEVEL_EQUIV)
            full = analyze_faults(synth.circuit, level=LEVEL_FULL)
            assert len(full.representatives) < len(equiv.representatives)
            assert full.all_faults == equiv.all_faults
            assert full.dominated
            # Dropped classes stay out of the target list but inside
            # the class map, so expansion still covers them.
            for rep in full.dominated:
                assert rep not in full.representatives
                assert full.class_of[rep] == rep

    def test_untestable_lifted_over_classes(self, s820_rugged):
        analysis = analyze_faults(s820_rugged.circuit, level=LEVEL_FULL)
        assert analysis.untestable  # dead inputs x3/x14
        for rep, reason in analysis.untestable.items():
            assert rep not in analysis.representatives
            assert "unexcitable" in reason or "unobservable" in reason

    def test_counters_block(self, two_bit_counter):
        analysis = analyze_faults(two_bit_counter)
        counters = analysis.counters()
        assert counters["collapse.faults_total"] == len(
            analysis.all_faults
        )
        assert counters["collapse.representatives"] == len(
            analysis.representatives
        )
        assert (
            counters["collapse.equiv_classes"]
            == counters["collapse.untestable_classes"]
            + counters["collapse.dominated_classes"]
            + counters["collapse.representatives"]
        )

    def test_cache_is_per_object_and_level(self, two_bit_counter):
        clear_analysis_cache()
        first = analyze_faults_cached(two_bit_counter, level=LEVEL_FULL)
        assert (
            analyze_faults_cached(two_bit_counter, level=LEVEL_FULL)
            is first
        )
        assert (
            analyze_faults_cached(two_bit_counter, level=LEVEL_EQUIV)
            is not first
        )
        clear_analysis_cache()
        assert (
            analyze_faults_cached(two_bit_counter, level=LEVEL_FULL)
            is not first
        )


class TestRetimingCheckpoints:
    def test_retiming_grows_checkpoints_with_registers(self, dk16_rugged):
        from repro.retime.core import backward_retime

        original = dk16_rugged.circuit
        retimed = backward_retime(original, 2).circuit
        before = checkpoint_nodes(original)
        after = checkpoint_nodes(retimed)
        assert retimed.num_dffs() > original.num_dffs()
        # Backward retiming adds registers (each a checkpoint) without
        # removing PIs, so the checkpoint count grows — the structural
        # face of the paper's observation that retimed circuits hand
        # ATPG a harder, wider target surface.
        assert len(after) > len(before)
        assert set(original.inputs) <= after


_HASHSEED_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.fault.analysis import analyze_faults
from repro.harness.suite import synthesize_named
analysis = analyze_faults(synthesize_named("dk16.ji.sd").circuit)
for fault in analysis.representatives:
    print(fault)
"""


class TestDeterminism:
    def test_target_list_is_hashseed_stable(self):
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


class TestCli:
    def test_output_creates_parents_and_still_prints(self, tmp_path, capsys):
        from repro.__main__ import main

        output = tmp_path / "nested" / "dir" / "c.txt"
        code = main([
            "fault-analysis", "report", "--circuits", "dk16.ji.sd",
            "--output", str(output),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "dk16.ji.sd" in printed
        assert output.read_text() == printed
