"""Per-rule fixtures: one circuit that triggers each rule, one that
stays clean.  The shared two_bit_counter fixture is the global clean
case — every registered rule must stay silent on it (checked in
test_core) — so the clean cases here focus on near-misses."""

import pytest

from repro.circuit import Circuit, CircuitBuilder, GateType, ONE, X, ZERO
from repro.lint import LintConfig, run_lint


def findings(circuit, rule_id, config=None):
    report = run_lint(circuit, config)
    return [d for d in report if d.rule_id == rule_id]


class TestDRC001StructuralIntegrity:
    def test_dangling_fanin(self):
        circuit = Circuit("broken")
        circuit.add_input("a")
        circuit.add_gate("g", GateType.AND, ["a", "ghost"])
        circuit.add_output("g")
        hits = findings(circuit, "DRC001")
        assert len(hits) == 1
        assert hits[0].severity == "error"

    def test_well_formed_is_silent(self, half_adder):
        assert not findings(half_adder, "DRC001")


class TestDRC002DeadNode:
    def test_dead_gate_and_input(self):
        builder = CircuitBuilder("dead")
        a, b, c = builder.inputs("a", "b", "c")  # c has no fanout at all
        builder.not_(b, name="unused")
        builder.output(builder.not_(a, name="out"))
        hits = findings(builder.build(), "DRC002")
        assert {d.subject for d in hits} == {"b", "c", "unused"}

    def test_po_cone_is_live(self, half_adder):
        assert not findings(half_adder, "DRC002")


class TestDRC003UnknownPowerUp:
    def test_x_init(self):
        builder = CircuitBuilder("noreset")
        a = builder.input("a")
        q = builder.dff("d", init=X, name="q")
        builder.xor(a, q, name="d")
        builder.output(q)
        hits = findings(builder.build(), "DRC003")
        assert len(hits) == 1
        assert "power up unknown" in hits[0].message

    def test_defined_reset_is_silent(self, toggle_circuit):
        assert not findings(toggle_circuit, "DRC003")


class TestDRC004NoPrimaryOutputs:
    def test_no_outputs(self):
        builder = CircuitBuilder("blind")
        a = builder.input("a")
        builder.not_(a)
        hits = findings(builder.build(check=False), "DRC004")
        assert len(hits) == 1
        assert hits[0].severity == "error"

    def test_with_outputs_is_silent(self, half_adder):
        assert not findings(half_adder, "DRC004")


class TestDRC005DisconnectedInput:
    def test_input_outside_po_cone(self):
        builder = CircuitBuilder("discon")
        a, b = builder.inputs("a", "b")
        builder.not_(b, name="sink")
        builder.output(builder.not_(a, name="out"))
        hits = findings(builder.build(), "DRC005")
        assert [d.subject for d in hits] == ["b"]

    def test_input_reaching_po_through_dff_is_silent(self, toggle_circuit):
        # enable only reaches the PO through the register: still connected.
        assert not findings(toggle_circuit, "DRC005")


class TestDRC101CombinationalCycle:
    def _cyclic(self):
        circuit = Circuit("loopy")
        circuit.add_input("a")
        circuit.add_gate("g1", GateType.AND, ["a", "g2"])
        circuit.add_gate("g2", GateType.OR, ["a", "g1"])
        circuit.add_output("g1")
        return circuit

    def test_cycle_reported_once_with_members(self):
        hits = findings(self._cyclic(), "DRC101")
        assert len(hits) == 1
        assert hits[0].severity == "error"
        assert "g1" in hits[0].message and "g2" in hits[0].message

    def test_dff_breaks_the_loop(self, toggle_circuit):
        # enable -> d -> q -> d is sequential, not combinational.
        assert not findings(toggle_circuit, "DRC101")


class TestDRC102ConstantNet:
    def test_gate_frozen_by_constant(self):
        builder = CircuitBuilder("frozen")
        a = builder.input("a")
        zero = builder.const0(name="tie0")
        builder.output(builder.and_(a, zero, name="g"))
        hits = findings(builder.build(), "DRC102")
        assert [d.subject for d in hits] == ["g"]
        assert "stuck at 0" in hits[0].message

    def test_const_ties_themselves_exempt(self):
        builder = CircuitBuilder("tied")
        a = builder.input("a")
        one = builder.const1(name="tie1")
        builder.output(builder.or_(a, one, name="g"))
        hits = findings(builder.build(), "DRC102")
        assert [d.subject for d in hits] == ["g"]  # not tie1


class TestDRC103StuckRegister:
    def test_register_fed_its_init_forever(self):
        builder = CircuitBuilder("stuck")
        a = builder.input("a")
        zero = builder.const0(name="tie0")
        q = builder.dff(zero, init=ZERO, name="q")
        builder.output(builder.xor(a, q, name="out"))
        hits = findings(builder.build(), "DRC103")
        assert [d.subject for d in hits] == ["q"]

    def test_toggling_register_is_silent(self, toggle_circuit):
        assert not findings(toggle_circuit, "DRC103")


class TestDRC104RetimingUnsafeInit:
    def test_parallel_registers_disagree_on_init(self):
        builder = CircuitBuilder("split")
        a = builder.input("a")
        q0 = builder.dff("d", init=ZERO, name="q0")
        q1 = builder.dff("d", init=ONE, name="q1")
        builder.not_(a, name="d")
        builder.output(builder.xor(q0, q1, name="out"))
        hits = findings(builder.build(), "DRC104")
        assert any("disagree on init" in d.message for d in hits)

    def test_init_contradicts_constant_d(self):
        builder = CircuitBuilder("dying-reset")
        a = builder.input("a")
        zero = builder.const0(name="tie0")
        q = builder.dff(zero, init=ONE, name="q")
        builder.output(builder.and_(a, q, name="out"))
        hits = findings(builder.build(), "DRC104")
        assert any("contradicts" in d.message for d in hits)

    def test_mixed_power_up(self):
        builder = CircuitBuilder("mixed")
        a = builder.input("a")
        q0 = builder.dff("d0", init=ZERO, name="q0")
        q1 = builder.dff("d1", init=X, name="q1")
        builder.xor(a, q0, name="d0")
        builder.xor(a, q1, name="d1")
        builder.output(builder.and_(q0, q1, name="out"))
        hits = findings(builder.build(), "DRC104")
        assert any("mixed power-up" in d.message for d in hits)

    def test_consistent_inits_are_silent(self, two_bit_counter):
        assert not findings(two_bit_counter, "DRC104")


class TestDRC105ScoapSaturated:
    def test_uncontrollable_line(self):
        builder = CircuitBuilder("unctrl")
        a = builder.input("a")
        zero = builder.const0(name="tie0")
        builder.output(builder.and_(a, zero, name="g"))
        hits = findings(builder.build(), "DRC105")
        assert any(
            d.subject == "g" and "controllability" in d.message for d in hits
        )

    def test_controllable_observable_is_silent(self, two_bit_counter):
        assert not findings(two_bit_counter, "DRC105")


class TestDRC106StateEncodingDensity:
    def test_lockstep_duplicates_waste_bits(self):
        builder = CircuitBuilder("wasteful")
        a = builder.input("a")
        regs = [builder.dff("d", init=ZERO, name=f"q{i}") for i in range(3)]
        builder.xor(a, regs[0], name="d")
        builder.output(builder.and_(*regs, name="out"))
        hits = findings(builder.build(), "DRC106")
        assert len(hits) == 1
        assert "lockstep duplicate" in hits[0].message

    def test_low_density_by_exact_reachability(self):
        # An 8-stage one-hot ring: 8 valid of 256 states = density 0.031.
        # No stuck registers, no duplicate drivers — only symbolic
        # reachability (the paper's own measurement) catches this one.
        builder = CircuitBuilder("ring8")
        enable = builder.input("enable")
        n = 8
        regs = [
            builder.dff(f"q{(i - 1) % n}", init=ONE if i == 0 else ZERO,
                        name=f"q{i}")
            for i in range(n)
        ]
        builder.output(builder.and_(enable, regs[0], name="out"))
        circuit = builder.build(check=False)
        circuit.check()
        hits = findings(circuit, "DRC106")
        assert len(hits) == 1
        assert "density of encoding" in hits[0].message
        assert "8 valid" in hits[0].message

    def test_dense_encoding_is_silent(self, two_bit_counter):
        # The counter reaches all 4 states: density 1.0.
        assert not findings(two_bit_counter, "DRC106")


class TestDRC107CombinationalDepth:
    def _chain(self, depth):
        builder = CircuitBuilder("deep")
        signal = builder.input("a")
        for i in range(depth):
            signal = builder.not_(signal, name=f"n{i}")
        builder.output(signal)
        return builder.build()

    def test_over_budget(self):
        hits = findings(self._chain(5), "DRC107", LintConfig(max_depth=3))
        assert len(hits) == 1
        assert hits[0].subject == "n4"  # only the deepest node reported

    def test_at_budget_is_silent(self):
        assert not findings(self._chain(3), "DRC107", LintConfig(max_depth=3))


class TestDRC108FanoutBudget:
    def _fan(self, readers):
        builder = CircuitBuilder("fan")
        a, b = builder.inputs("a", "b")
        sinks = [builder.and_(a, b, name=f"s{i}") for i in range(readers)]
        builder.output(builder.or_(*sinks, name="out"))
        return builder.build()

    def test_over_budget(self):
        config = LintConfig(max_fanout=2, max_fanout_fraction=0.0)
        hits = findings(self._fan(3), "DRC108", config)
        assert {d.subject for d in hits} == {"a", "b"}

    def test_budget_scales_with_circuit_size(self):
        # fraction * #nodes lifts the budget over the absolute floor.
        config = LintConfig(max_fanout=2, max_fanout_fraction=1.0)
        assert not findings(self._fan(3), "DRC108", config)


class TestDRC109UntestableFaultSite:
    def test_unobservable_site_flagged_with_proofs(self):
        builder = CircuitBuilder("deadwood")
        a, b = builder.inputs("a", "b")
        builder.and_(a, b, name="dead")
        builder.output(builder.not_(a, name="y"))
        circuit = builder.build(check=False)
        circuit.check()
        hits = findings(circuit, "DRC109")
        subjects = {d.subject for d in hits}
        assert "dead" in subjects and "b" in subjects
        dead = next(d for d in hits if d.subject == "dead")
        assert "unobservable" in dead.message
        assert "dead/sa0" in dead.message and "dead/sa1" in dead.message

    def test_constant_line_flagged_one_fault_only(self):
        builder = CircuitBuilder("tied")
        a = builder.input("a")
        one = builder.const1(name="vdd")
        builder.output(builder.and_(a, one, name="y"))
        hits = findings(builder.build(), "DRC109")
        tied = next(d for d in hits if d.subject == "vdd")
        assert "vdd/sa1" in tied.message
        assert "vdd/sa0" not in tied.message

    def test_clean_circuit_is_silent(self, two_bit_counter):
        assert not findings(two_bit_counter, "DRC109")


class TestDRC110CheckpointRatio:
    def _chain(self, length):
        """One long fanout-free NOT chain: minimal checkpoint ratio."""
        builder = CircuitBuilder("chain")
        signal = builder.input("a")
        for i in range(length):
            signal = builder.not_(signal, name=f"n{i}")
        builder.output(signal)
        return builder.build()

    def test_low_ratio_flagged(self):
        config = LintConfig(min_checkpoint_ratio=0.2)
        hits = findings(self._chain(20), "DRC110", config)
        assert len(hits) == 1
        assert "below" in hits[0].message

    def test_high_ratio_flagged(self, two_bit_counter):
        # Every line in the counter is a PI/DFF/stem or near it.
        config = LintConfig(max_checkpoint_ratio=0.1)
        hits = findings(two_bit_counter, "DRC110", config)
        assert len(hits) == 1
        assert "above" in hits[0].message

    def test_suite_band_default_is_silent(
        self, dk16_rugged, s820_rugged
    ):
        assert not findings(dk16_rugged.circuit, "DRC110")
        assert not findings(s820_rugged.circuit, "DRC110")
