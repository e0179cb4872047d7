"""Cube/cover algebra, with truth-table oracles."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.cube import Cover, Cube, CubeError


def cover_truth(cover, width):
    return [cover.evaluate(a) for a in range(1 << width)]


def cube_strings(width):
    return st.text(alphabet="01-", min_size=width, max_size=width)


class TestCube:
    def test_parse_render_roundtrip(self):
        for text in ("01-", "---", "111", "0-1"):
            assert Cube.from_string(text).to_string() == text

    def test_bad_char_rejected(self):
        with pytest.raises(CubeError):
            Cube.from_string("01z")

    def test_noncanonical_rejected(self):
        with pytest.raises(CubeError):
            Cube(width=2, mask=0b01, value=0b10)

    def test_contains(self):
        big = Cube.from_string("1--")
        small = Cube.from_string("101")
        assert big.contains(small)
        assert not small.contains(big)
        assert big.contains(big)

    def test_intersection(self):
        a = Cube.from_string("1-0")
        b = Cube.from_string("11-")
        both = a.intersection(b)
        assert both.to_string() == "110"
        assert a.intersection(Cube.from_string("0--")) is None

    def test_distance(self):
        assert Cube.from_string("10").distance(Cube.from_string("01")) == 2
        assert Cube.from_string("1-").distance(Cube.from_string("-1")) == 0

    def test_minterm_count(self):
        assert Cube.from_string("1--").num_minterms() == 4
        assert Cube.from_string("111").num_minterms() == 1

    def test_cofactor(self):
        cube = Cube.from_string("1-0")
        assert cube.cofactor(0, 1).to_string() == "--0"
        assert cube.cofactor(0, 0) is None
        assert cube.cofactor(1, 1) is cube

    def test_expand_restrict(self):
        cube = Cube.from_string("10")
        assert cube.expand_position(0).to_string() == "-0"
        assert cube.expand_position(0).restrict_position(0, 1) == cube
        with pytest.raises(CubeError):
            cube.expand_position(0).expand_position(0).expand_position(0)


class TestCover:
    def test_tautology_exhaustive_small(self):
        """Cross-check is_tautology against truth tables for all covers
        of up to 3 cubes over 3 variables (sampled deterministically)."""
        all_cubes = [
            "".join(bits)
            for bits in itertools.product("01-", repeat=2)
        ]
        for rows in itertools.combinations(all_cubes, 2):
            cover = Cover.from_strings(2, rows)
            expected = all(cover_truth(cover, 2))
            assert cover.is_tautology() == expected, rows

    def test_universe_and_empty(self):
        assert Cover.universe(3).is_tautology()
        assert not Cover.empty(3).is_tautology()

    def test_contains_cube(self):
        cover = Cover.from_strings(2, ["1-", "-1"])
        assert cover.contains_cube(Cube.from_string("11"))
        assert not cover.contains_cube(Cube.from_string("--"))

    def test_single_cube_containment(self):
        cover = Cover.from_strings(2, ["11", "1-", "11"])
        pruned = cover.single_cube_containment()
        assert pruned.to_strings() == ["1-"]

    @given(
        st.lists(cube_strings(4), min_size=0, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_complement_property(self, rows):
        cover = Cover.from_strings(4, rows)
        complement = cover.complement()
        truth = cover_truth(cover, 4)
        comp_truth = cover_truth(complement, 4)
        for a in range(16):
            assert truth[a] != comp_truth[a], (rows, a)

    @given(
        st.lists(cube_strings(5), min_size=1, max_size=8),
        st.lists(cube_strings(5), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_contains_cover_property(self, rows_a, rows_b):
        a = Cover.from_strings(5, rows_a)
        b = Cover.from_strings(5, rows_b)
        expected = all(
            a.covers_minterm(m)
            for m in range(32)
            if b.covers_minterm(m)
        )
        assert a.contains_cover(b) == expected


def sequential_cofactor(cover, cube):
    """Reference: Shannon-cofactor one literal at a time, cube by cube."""
    cubes = list(cover.cubes)
    for position in range(cover.width):
        polarity = cube.literal(position)
        if polarity is None:
            continue
        reduced = (c.cofactor(position, polarity) for c in cubes)
        cubes = [c for c in reduced if c is not None]
    return cubes


def reference_split_position(cubes, width):
    """Reference: most cubes in the minority polarity, then most cubes,
    then the lowest position."""
    best = None
    best_key = None
    for position in range(width):
        polarities = [c.literal(position) for c in cubes]
        zeros = polarities.count(0)
        ones = polarities.count(1)
        if zeros + ones == 0:
            continue
        key = (min(zeros, ones), zeros + ones)
        if best_key is None or key > best_key:
            best_key = key
            best = position
    return best


def reference_complement(cubes, width):
    """Reference: the literal-by-literal Shannon complement, with the
    same output order as the mask-level one."""
    if not cubes:
        return [Cube.universal(width)]
    if any(c.mask == 0 for c in cubes):
        return []
    if len(cubes) == 1:
        return [
            Cube.universal(width).restrict_position(position, 1 - polarity)
            for position in range(width)
            for polarity in [cubes[0].literal(position)]
            if polarity is not None
        ]
    position = reference_split_position(cubes, width)
    result = []
    for polarity in (0, 1):
        reduced = (c.cofactor(position, polarity) for c in cubes)
        part = reference_complement(
            [c for c in reduced if c is not None], width
        )
        result += [c.restrict_position(position, polarity) for c in part]
    kept = []
    for cube in sorted(result, key=lambda c: c.literal_count()):
        if not any(other.contains(cube) for other in kept):
            kept.append(cube)
    return kept


class TestRawAlgebra:
    """The mask-level fast paths against literal-by-literal references."""

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda width: st.tuples(
                st.lists(cube_strings(width), max_size=10),
                cube_strings(width),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_one_pass_cofactor_matches_sequential(self, case):
        rows, by = case
        cover = Cover.from_strings(len(by), rows)
        cube = Cube.from_string(by)
        assert cover.cofactor_cube(cube).cubes == sequential_cofactor(
            cover, cube
        )

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda width: st.lists(cube_strings(width), max_size=12).map(
                lambda rows: (width, rows)
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_tautology_matches_minterm_enumeration(self, case):
        width, rows = case
        cover = Cover.from_strings(width, rows)
        assert cover.is_tautology() == all(cover_truth(cover, width))

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda width: st.lists(cube_strings(width), max_size=8).map(
                lambda rows: (width, rows)
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_complement_order_matches_reference(self, case):
        """Same cubes in the same order: the splitting variable and its
        tie-break feed the don't-care covers synthesis minimizes
        against."""
        width, rows = case
        cover = Cover.from_strings(width, rows)
        assert cover.complement().cubes == reference_complement(
            cover.cubes, width
        )

    @pytest.mark.parametrize("width", range(1, 9))
    def test_tautology_of_all_minterms(self, width):
        full = Cover(
            width, [Cube.minterm(width, a) for a in range(1 << width)]
        )
        assert full.is_tautology()
        full.cubes.pop()
        assert not full.is_tautology()

    @given(
        st.lists(cube_strings(6), min_size=1, max_size=8),
        st.lists(cube_strings(6), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_minimized_cubes_revalidate(self, on_rows, dc_rows):
        from repro.logic.espresso import minimize

        on = Cover.from_strings(6, on_rows)
        dc = Cover.from_strings(6, dc_rows)
        for cube in minimize(on, dc).cover:
            assert Cube(cube.width, cube.mask, cube.value) == cube

    def test_literals_ascending(self):
        assert Cube.from_string("1-0-1").literals() == [
            (0, 1),
            (2, 0),
            (4, 1),
        ]
        assert Cube.universal(3).literals() == []

    def test_restrict_rejects_out_of_range(self):
        with pytest.raises(CubeError):
            Cube.universal(2).restrict_position(2, 1)
