"""BDD package: connectives, counting, quantification, image."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.bdd import BddError, BddManager


@pytest.fixture
def manager():
    return BddManager(["a", "b", "c", "d"])


def brute_force(manager, f, variables):
    """Set of satisfying assignments by exhaustive evaluation."""
    result = set()
    for bits in itertools.product((0, 1), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if manager.evaluate(f, assignment):
            result.add(bits)
    return result


class TestBasics:
    def test_terminals(self, manager):
        assert manager.TRUE != manager.FALSE
        assert manager.not_(manager.TRUE) == manager.FALSE

    def test_var_and_nvar(self, manager):
        a = manager.var("a")
        assert manager.not_(a) == manager.nvar("a")
        assert manager.evaluate(a, {"a": 1}) == 1
        assert manager.evaluate(a, {"a": 0}) == 0

    def test_unknown_variable_rejected(self, manager):
        with pytest.raises(BddError):
            manager.var("zz")

    def test_hash_consing(self, manager):
        f = manager.and_(manager.var("a"), manager.var("b"))
        g = manager.and_(manager.var("a"), manager.var("b"))
        assert f == g  # structural uniqueness makes equality trivial

    def test_connective_truth_tables(self, manager):
        a, b = manager.var("a"), manager.var("b")
        cases = {
            "and": (manager.and_(a, b), lambda x, y: x & y),
            "or": (manager.or_(a, b), lambda x, y: x | y),
            "xor": (manager.xor(a, b), lambda x, y: x ^ y),
            "xnor": (manager.xnor(a, b), lambda x, y: 1 - (x ^ y)),
            "implies": (manager.implies(a, b), lambda x, y: int(not x or y)),
        }
        for name, (f, ref) in cases.items():
            for x, y in itertools.product((0, 1), repeat=2):
                assert (
                    manager.evaluate(f, {"a": x, "b": y}) == ref(x, y)
                ), name

    def test_and_or_many(self, manager):
        vs = [manager.var(v) for v in "abcd"]
        all_and = manager.and_many(vs)
        assert manager.satcount(all_and) == 1
        any_or = manager.or_many(vs)
        assert manager.satcount(any_or) == 15


class TestCounting:
    def test_satcount_full_space(self, manager):
        f = manager.or_(
            manager.and_(manager.var("a"), manager.var("b")),
            manager.var("c"),
        )
        assert manager.satcount(f) == len(
            brute_force(manager, f, ["a", "b", "c", "d"])
        )

    def test_satcount_subspace(self, manager):
        f = manager.and_(manager.var("a"), manager.var("b"))
        assert manager.satcount(f, ["a", "b"]) == 1
        assert manager.satcount(f, ["a", "b", "c"]) == 2

    def test_satcount_requires_support(self, manager):
        f = manager.var("c")
        with pytest.raises(BddError):
            manager.satcount(f, ["a", "b"])

    def test_iter_satisfying(self, manager):
        f = manager.and_(manager.var("a"), manager.nvar("c"))
        found = {
            (s["a"], s["b"], s["c"])
            for s in manager.iter_satisfying(f, ["a", "b", "c"])
        }
        assert found == {(1, 0, 0), (1, 1, 0)}

    def test_support(self, manager):
        f = manager.xor(manager.var("a"), manager.var("d"))
        assert manager.support(f) == ["a", "d"]


class TestQuantification:
    def test_exists(self, manager):
        f = manager.and_(manager.var("a"), manager.var("b"))
        g = manager.exists(["a"], f)
        assert g == manager.var("b")

    def test_exists_multiple(self, manager):
        f = manager.and_(manager.var("a"), manager.var("b"))
        assert manager.exists(["a", "b"], f) == manager.TRUE

    def test_restrict(self, manager):
        f = manager.ite(
            manager.var("a"), manager.var("b"), manager.var("c")
        )
        assert manager.restrict(f, {"a": 1}) == manager.var("b")
        assert manager.restrict(f, {"a": 0}) == manager.var("c")

    def test_cube(self, manager):
        f = manager.cube({"a": 1, "c": 0})
        assert manager.satcount(f) == 4
        assert manager.evaluate(f, {"a": 1, "b": 0, "c": 0, "d": 1}) == 1
        assert manager.evaluate(f, {"a": 1, "b": 0, "c": 1, "d": 1}) == 0


class TestRange:
    def test_range_of_increment(self):
        """Image of {0,1,2,3} under +1 mod 4 over 2 state bits."""
        manager = BddManager(["s0", "s1"])
        s0, s1 = manager.var("s0"), manager.var("s1")
        # next0 = !s0 ; next1 = s0 XOR s1
        f0 = manager.not_(s0)
        f1 = manager.xor(s0, s1)
        image = manager.range_of([f0, f1], ["s0", "s1"], manager.TRUE)
        assert manager.satcount(image, ["s0", "s1"]) == 4

    def test_range_constrained(self):
        manager = BddManager(["s0", "s1"])
        s0, s1 = manager.var("s0"), manager.var("s1")
        f0 = manager.not_(s0)
        f1 = manager.xor(s0, s1)
        care = manager.cube({"s0": 0, "s1": 0})
        image = manager.range_of([f0, f1], ["s0", "s1"], care)
        sats = list(manager.iter_satisfying(image, ["s0", "s1"]))
        assert sats == [{"s0": 1, "s1": 0}]

    def test_range_empty_care(self):
        manager = BddManager(["s0"])
        image = manager.range_of(
            [manager.var("s0")], ["s0"], manager.FALSE
        )
        assert image == manager.FALSE

    @given(st.integers(min_value=0, max_value=255), st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_range_matches_brute_force(self, function_bits, care_bits):
        """Random 2-bit next-state functions over (s0, s1): image must
        equal the brute-force successor set."""
        manager = BddManager(["s0", "s1"])
        variables = ["s0", "s1"]

        def fn_value(fn_index, s0, s1):
            position = s0 + 2 * s1
            return (function_bits >> (4 * fn_index + position)) & 1

        functions = []
        for fn_index in range(2):
            f = manager.FALSE
            for s0, s1 in itertools.product((0, 1), repeat=2):
                if fn_value(fn_index, s0, s1):
                    f = manager.or_(
                        f, manager.cube({"s0": s0, "s1": s1})
                    )
            functions.append(f)
        care = manager.FALSE
        care_states = []
        for s0, s1 in itertools.product((0, 1), repeat=2):
            if (care_bits >> (s0 + 2 * s1)) & 1:
                care = manager.or_(
                    care, manager.cube({"s0": s0, "s1": s1})
                )
                care_states.append((s0, s1))
        image = manager.range_of(functions, variables, care)
        expected = {
            (fn_value(0, s0, s1), fn_value(1, s0, s1))
            for s0, s1 in care_states
        }
        found = {
            (s["s0"], s["s1"])
            for s in manager.iter_satisfying(image, variables)
        }
        assert found == expected


def from_truth_table(manager, bits, variables):
    """The function whose truth table is ``bits`` (minterm i is bit i,
    variable j is bit j of i), built with ITE alone."""
    f = manager.FALSE
    for minterm in range(1 << len(variables)):
        if not (bits >> minterm) & 1:
            continue
        term = manager.TRUE
        for position, name in reversed(list(enumerate(variables))):
            literal = manager.var(name)
            if (minterm >> position) & 1:
                term = manager.ite(literal, term, manager.FALSE)
            else:
                term = manager.ite(literal, manager.FALSE, term)
        f = manager.ite(f, manager.TRUE, term)
    return f


class TestApply:
    """AND, OR and NOT run their own apply recursions; ROBDDs are
    canonical, so each must return the very node ITE returns."""

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    @settings(max_examples=100, deadline=None)
    def test_same_nodes_as_ite(self, f_bits, g_bits):
        variables = ["a", "b", "c", "d"]
        manager = BddManager(variables)
        f = from_truth_table(manager, f_bits, variables)
        g = from_truth_table(manager, g_bits, variables)
        t, z = manager.TRUE, manager.FALSE
        for left, right in ((f, g), (g, f), (f, f), (f, t), (z, g)):
            assert manager.and_(left, right) == manager.ite(left, right, z)
            assert manager.or_(left, right) == manager.ite(left, t, right)
        assert manager.not_(f) == manager.ite(f, z, t)
        assert manager.not_(manager.not_(f)) == f
        assert manager.and_(f, g) == from_truth_table(
            manager, f_bits & g_bits, variables
        )
        assert manager.or_(f, g) == from_truth_table(
            manager, f_bits | g_bits, variables
        )
        assert manager.not_(g) == from_truth_table(
            manager, ~g_bits & 0xFFFF, variables
        )
