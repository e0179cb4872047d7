"""Two-level minimization correctness (both engines) and quality."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.cube import Cover, Cube
from repro._util import bit_positions
from repro.logic.espresso import (
    _BDD_ORACLE_WIDTH,
    _Oracle,
    _reduce,
    MinimizationResult,
    minimize,
    verify_minimization,
)


def cube_strings(width):
    return st.text(alphabet="01-", min_size=width, max_size=width)


def check_exact(on, dc, result_cover, width):
    """Truth-table verification: ON covered, OFF untouched."""
    for a in range(1 << width):
        in_on = on.covers_minterm(a)
        in_dc = dc.covers_minterm(a)
        in_min = result_cover.covers_minterm(a)
        if in_on and not in_min and not in_dc:
            return False
        if in_min and not in_on and not in_dc:
            return False
    return True


class TestExhaustiveSmall:
    def test_every_two_variable_function(self):
        """Minimize every 2-input function from its minterm form; the
        result must implement the function exactly (no DC)."""
        for truth in range(16):
            minterms = [m for m in range(4) if (truth >> m) & 1]
            on = Cover(2, [Cube.minterm(2, m) for m in minterms])
            result = minimize(on)
            for m in range(4):
                assert result.cover.covers_minterm(m) == bool(
                    (truth >> m) & 1
                ), truth

    def test_classic_consensus(self):
        # a'b + ab + ab' -> a + b
        on = Cover.from_strings(2, ["01", "11", "10"])
        result = minimize(on)
        assert result.cubes == 2
        assert result.literals == 2

    def test_dc_enables_merge(self):
        # f = m0 + m3, dc = m1 + m2 -> constant-ish single cube possible
        on = Cover(2, [Cube.minterm(2, 0), Cube.minterm(2, 3)])
        dc = Cover(2, [Cube.minterm(2, 1), Cube.minterm(2, 2)])
        result = minimize(on, dc)
        assert result.cubes == 1
        assert result.cover.cubes[0].mask == 0  # the universal cube

    def test_never_worse_than_input(self):
        on = Cover.from_strings(3, ["111", "110", "101", "100"])
        result = minimize(on)
        assert result.cubes <= 4
        assert result.cover.to_strings() == ["1--"]


class TestPropertyBased:
    @given(
        st.lists(cube_strings(5), min_size=1, max_size=8),
        st.lists(cube_strings(5), min_size=0, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_cube_engine_sound(self, on_rows, dc_rows):
        on = Cover.from_strings(5, on_rows)
        dc = Cover.from_strings(5, dc_rows)
        result = minimize(on, dc)
        assert check_exact(on, dc, result.cover, 5)
        assert verify_minimization(on, dc, result.cover)

    @given(
        st.lists(cube_strings(14), min_size=1, max_size=10),
        st.lists(cube_strings(14), min_size=0, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_bdd_engine_sound(self, on_rows, dc_rows):
        """Width 14 > oracle threshold: exercises the BDD path; verified
        with the independent verify_minimization (also BDD) plus spot
        minterm checks."""
        assert 14 > _BDD_ORACLE_WIDTH
        on = Cover.from_strings(14, on_rows)
        dc = Cover.from_strings(14, dc_rows)
        result = minimize(on, dc)
        assert verify_minimization(on, dc, result.cover)
        # Spot-check: every original cube's defining minterm stays covered.
        for cube in on.cubes:
            minterm = cube.value  # free positions at 0
            assert result.cover.covers_minterm(minterm) or dc.covers_minterm(
                minterm
            )

    @given(
        st.lists(cube_strings(4), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_idempotent_quality(self, on_rows):
        """Minimizing a minimized cover must not increase cost."""
        on = Cover.from_strings(4, on_rows)
        first = minimize(on)
        second = minimize(first.cover)
        assert (second.cubes, second.literals) <= (
            first.cubes,
            first.literals,
        )


class TestOracle:
    def test_oracle_agrees_with_cube_engine(self):
        """Both containment engines must agree on random queries."""
        width = 6
        cover = Cover.from_strings(
            width, ["1----0", "-11---", "0--1--", "---0-1"]
        )
        oracle = _Oracle(width, reference=cover)
        space = oracle.cover_bdd(cover)
        import itertools as it

        for bits in it.product("01-", repeat=width):
            cube = Cube.from_string("".join(bits))
            assert oracle.cube_inside(cube, space) == cover.contains_cube(
                cube
            )


def reduce_by_rescan(cover, dc, oracle):
    """REDUCE as a drop-one-literal-and-rescan loop: shrink while a
    removed half is covered by the rest (reduced cubes before, original
    cubes after) plus DC, restarting the scan after every drop.  The
    oracle for the one-supercube-per-cube ``_reduce``."""
    full = (1 << cover.width) - 1
    reduced = []
    for index, cube in enumerate(cover.cubes):
        rest = Cover(cover.width, reduced + cover.cubes[index + 1 :] + dc.cubes)
        if oracle is not None:
            rest_bdd = oracle.cover_bdd(rest)

            def covered(part):
                return oracle.cube_inside(part, rest_bdd)

        else:
            covered = rest.contains_cube
        shrunk = cube
        changed = True
        while changed:
            changed = False
            for position in bit_positions(full & ~shrunk.mask):
                for polarity in (0, 1):
                    removed = shrunk.restrict_position(position, 1 - polarity)
                    if covered(removed):
                        shrunk = shrunk.restrict_position(position, polarity)
                        changed = True
                        break
                if changed:
                    break
        reduced.append(shrunk)
    return Cover(cover.width, reduced)


class TestReduce:
    """``_reduce`` computes each cube's supercube of its essential part
    directly; the rescan loop it replaced stays the oracle."""

    @given(
        st.lists(cube_strings(6), min_size=1, max_size=9),
        st.lists(cube_strings(6), min_size=0, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_cube_path_matches_rescan(self, on_rows, dc_rows):
        on = Cover.from_strings(6, on_rows)
        dc = Cover.from_strings(6, dc_rows)
        assert (
            _reduce(on, dc, None).to_strings()
            == reduce_by_rescan(on, dc, None).to_strings()
        )

    @given(
        st.lists(cube_strings(14), min_size=1, max_size=9),
        st.lists(cube_strings(14), min_size=0, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_bdd_path_matches_rescan(self, on_rows, dc_rows):
        assert 14 > _BDD_ORACLE_WIDTH
        on = Cover.from_strings(14, on_rows)
        dc = Cover.from_strings(14, dc_rows)
        oracle = _Oracle(14, reference=on)
        assert (
            _reduce(on, dc, oracle).to_strings()
            == reduce_by_rescan(on, dc, oracle).to_strings()
        )

    @pytest.mark.parametrize("width", [3, 14])
    def test_empty_essential_part_fixes_free_positions_to_zero(self, width):
        """A cube the rest covers entirely has no essential part: every
        free position goes to 0, as the rescan loop leaves it."""
        on = Cover.from_strings(
            width, ["11" + "-" * (width - 2), "1" + "-" * (width - 1)]
        )
        oracle = _Oracle(width, reference=on) if width > _BDD_ORACLE_WIDTH else None
        expected = ["11" + "0" * (width - 2), "1" + "-" * (width - 1)]
        empty = Cover.empty(width)
        assert _reduce(on, empty, oracle).to_strings() == expected
        assert reduce_by_rescan(on, empty, oracle).to_strings() == expected
