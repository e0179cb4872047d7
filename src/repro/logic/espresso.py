"""Heuristic two-level minimization (espresso substitute).

SIS's espresso drives the paper's logic synthesis; this module implements
the same EXPAND / IRREDUNDANT / REDUCE loop over the cube covers of
:mod:`repro.logic.cube`:

* **EXPAND** raises literals of each cube to don't-care while the cube
  stays inside ON ∪ DC, then drops cubes absorbed by the expansion.
* **IRREDUNDANT** removes each cube that the rest of the cover plus the
  DC-set already covers.
* **REDUCE** shrinks each cube to the smallest cube covering the
  minterms only it covers (the supercube of its essential part),
  giving EXPAND room to move in a different direction on the next
  pass.

The loop runs until the cost (cubes, literals) stops improving.

Containment questions ("is this cube inside that cover?") have two
engines: exact cofactor-tautology recursion on the cube representation
(used for narrow functions, and as the test oracle) and a BDD-backed
oracle (used automatically for wide functions such as the 34-variable
next-state covers of the scf benchmark, where cube recursion is too
slow).  Both are exact; the tests cross-check them.

This is not a bit-exact espresso clone — the paper needs a competent
minimizer with don't-care support (unreachable state codes become
external DCs), which this is.  Correctness (ON covered, OFF untouched)
is verified by exhaustive and property-based tests.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from .._util import bit_positions
from .bdd import BddManager
from .cube import Cover, Cube, CubeError

# Above this width the BDD oracle takes over containment checks.
_BDD_ORACLE_WIDTH = 12


@dataclasses.dataclass
class MinimizationResult:
    """Minimized cover plus before/after accounting for logs and tests."""

    cover: Cover
    initial_cubes: int
    initial_literals: int
    passes: int

    @property
    def cubes(self) -> int:
        return len(self.cover)

    @property
    def literals(self) -> int:
        return self.cover.literal_count()


class _Oracle:
    """Answers cube-containment queries for one fixed input width.

    The BDD variable order is chosen by descending literal frequency in
    a reference cover (the ON ∪ DC space), which keeps the
    characteristic-function BDDs small for the skewed covers synthesis
    produces (state-bit literals in every cube, input literals sparse).
    Containment is answered by cofactoring — linear in the BDD size —
    rather than building cube ∧ ¬space.
    """

    def __init__(self, width: int, reference: Optional[Cover] = None):
        self.width = width
        frequency = [0] * width
        if reference is not None:
            for cube in reference.cubes:
                for position in bit_positions(cube.mask):
                    frequency[position] += 1
        order = sorted(range(width), key=lambda p: (-frequency[p], p))
        self._manager = BddManager([f"x{p}" for p in order])
        self._vars = {}
        self._nvars = {}
        self._levels = {}
        for position in order:
            self._vars[position] = self._manager.var(f"x{position}")
            self._nvars[position] = self._manager.nvar(f"x{position}")
            self._levels[position] = self._manager.level_of(f"x{position}")
        # Positions from deepest BDD level to shallowest, so cube
        # conjunctions build bottom-up (linear work).
        self._build_order = list(reversed(order))

    def cube_bdd(self, cube: Cube) -> int:
        m = self._manager
        acc = m.TRUE
        cube_mask = cube.mask
        cube_value = cube.value
        for position in self._build_order:
            if not (cube_mask >> position) & 1:
                continue
            literal = (
                self._vars[position]
                if (cube_value >> position) & 1
                else self._nvars[position]
            )
            acc = m.and_(literal, acc)
        return acc

    def cover_bdd(self, cover: Cover) -> int:
        m = self._manager
        acc = m.FALSE
        for cube in cover.cubes:
            acc = m.or_(acc, self.cube_bdd(cube))
        return acc

    def or_(self, f: int, g: int) -> int:
        return self._manager.or_(f, g)

    def cube_inside(self, cube: Cube, space_bdd: int) -> bool:
        by_level = {}
        levels = self._levels
        cube_value = cube.value
        remaining = cube.mask
        while remaining:
            low_bit = remaining & -remaining
            remaining ^= low_bit
            position = low_bit.bit_length() - 1
            by_level[levels[position]] = (cube_value >> position) & 1
        return self._manager.cofactor_is_true(space_bdd, by_level)


def minimize(
    on_set: Cover,
    dc_set: Optional[Cover] = None,
    max_passes: int = 8,
) -> MinimizationResult:
    """Minimize ``on_set`` against optional don't-cares.

    The result covers every ON minterm, no OFF minterm, and may cover DC
    minterms freely (verified by property tests).
    """
    width = on_set.width
    dc = dc_set if dc_set is not None else Cover.empty(width)
    current = on_set.single_cube_containment()
    initial_cubes = len(on_set)
    initial_literals = on_set.literal_count()

    oracle = (
        _Oracle(width, reference=_care_union(on_set, dc))
        if width > _BDD_ORACLE_WIDTH
        else None
    )

    best = current
    best_cost = _cost(best)
    passes = 0
    for _ in range(max_passes):
        passes += 1
        expanded = _expand(current, dc, oracle)
        irredundant = _irredundant(expanded, dc, oracle)
        cost = _cost(irredundant)
        if cost < best_cost:
            best = irredundant
            best_cost = cost
            current = _reduce(irredundant, dc, oracle)
        else:
            break
    return MinimizationResult(
        cover=best,
        initial_cubes=initial_cubes,
        initial_literals=initial_literals,
        passes=passes,
    )


def _cost(cover: Cover) -> tuple:
    return (len(cover), cover.literal_count())


def _care_union(cover: Cover, dc: Cover) -> Cover:
    if dc.width != cover.width:
        raise CubeError(f"dc width {dc.width} != cover width {cover.width}")
    return Cover._of(cover.width, cover.cubes + dc.cubes)


def _expand(cover: Cover, dc: Cover, oracle: Optional[_Oracle]) -> Cover:
    """Greedy literal raising, smallest cubes first (they expand into
    larger cubes that then absorb others)."""
    if oracle is not None:
        feasible_bdd = oracle.cover_bdd(_care_union(cover, dc))

        def feasible(candidate: Cube) -> bool:
            return oracle.cube_inside(candidate, feasible_bdd)

    else:
        feasible_space = _care_union(cover, dc)

        def feasible(candidate: Cube) -> bool:
            return feasible_space.contains_cube(candidate)

    result_cubes: List[Cube] = []
    pending = sorted(cover.cubes, key=lambda c: c.literal_count())
    for cube in pending:
        if any(done.contains(cube) for done in result_cubes):
            continue
        # One ascending sweep is a fixpoint: containment is monotone, so
        # a literal that could not be raised stays unraisable once other
        # literals are raised (the raised cube only grows).
        expanded = cube
        for position in bit_positions(cube.mask):
            candidate = expanded.expand_position(position)
            if feasible(candidate):
                expanded = candidate
        result_cubes.append(expanded)
    return Cover._of(cover.width, result_cubes).single_cube_containment()


def _irredundant(cover: Cover, dc: Cover, oracle: Optional[_Oracle]) -> Cover:
    """Drop cubes whose minterms the rest of the cover (plus DC) covers.

    Cubes are visited smallest-first so the cover keeps its big cubes.
    With the BDD oracle, rest-of-cover functions come from prefix/suffix
    OR arrays, so the whole pass is linear in cover size.
    """
    cubes = sorted(
        cover.cubes, key=lambda c: (-c.literal_count(), c.to_string())
    )
    if oracle is not None:
        dc_bdd = oracle.cover_bdd(dc)
        kept = list(cubes)
        # Iterate until stable: removing one cube changes the rest-space
        # of the others, so a single sweep with stale prefix/suffix data
        # must be re-verified.
        changed = True
        while changed:
            changed = False
            bdds = [oracle.cube_bdd(c) for c in kept]
            n = len(bdds)
            prefix = [oracle._manager.FALSE] * (n + 1)
            for i in range(n):
                prefix[i + 1] = oracle.or_(prefix[i], bdds[i])
            suffix = [oracle._manager.FALSE] * (n + 1)
            for i in range(n - 1, -1, -1):
                suffix[i] = oracle.or_(suffix[i + 1], bdds[i])
            for i, cube in enumerate(kept):
                if len(kept) == 1:
                    break
                rest = oracle.or_(
                    oracle.or_(prefix[i], suffix[i + 1]), dc_bdd
                )
                if oracle.cube_inside(cube, rest):
                    kept = kept[:i] + kept[i + 1 :]
                    changed = True
                    break
        return Cover._of(cover.width, kept)

    kept = list(cubes)
    for cube in cubes:
        if len(kept) == 1:
            break
        others = [c for c in kept if c is not cube]
        if Cover._of(cover.width, others + dc.cubes).contains_cube(cube):
            kept = others
    return Cover._of(cover.width, kept)


def _reduce(cover: Cover, dc: Cover, oracle: Optional[_Oracle]) -> Cover:
    """Shrink each cube to its essential part (maximally reduced cube
    that still covers the minterms no other cube covers).

    The essential part of ``cube`` is E = cube ∧ ¬(rest ∪ dc), and the
    reduced cube is E's supercube: a free position p is fixed to v iff
    every minterm of E has p = v, i.e. iff ``cube|p=¬v`` is covered by
    rest ∪ dc.  So one check of the whole cube, then at most two per
    free position of the original cube decide it, in any order.  When
    E is empty (the whole cube is covered) every free position is
    fixed to 0, where the drop-one-literal-and-rescan loop ends too.

    REDUCE must be *sequential*: once a cube has been shrunk, later cubes
    see the shrunk version, otherwise two overlapping cubes can each
    delegate the same minterms to the other and both drop them, losing
    ON coverage.
    """
    if oracle is not None:
        dc_bdd = oracle.cover_bdd(dc)
        bdds = [oracle.cube_bdd(c) for c in cover.cubes]
        n = len(bdds)
        # suffix[i] = OR of the (not yet reduced) cubes after position i.
        suffix = [oracle._manager.FALSE] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = oracle.or_(suffix[i + 1], bdds[i])
        reduced_prefix_bdd = oracle._manager.FALSE

    full = (1 << cover.width) - 1
    reduced: List[Cube] = []
    for index, cube in enumerate(cover.cubes):
        if oracle is not None:
            rest_bdd = oracle.or_(
                oracle.or_(reduced_prefix_bdd, suffix[index + 1]), dc_bdd
            )

            def covered(part: Cube) -> bool:
                return oracle.cube_inside(part, rest_bdd)

        else:
            with_dc = Cover._of(
                cover.width, reduced + cover.cubes[index + 1 :] + dc.cubes
            )

            def covered(part: Cube) -> bool:
                return with_dc.contains_cube(part)

        free = list(bit_positions(full & ~cube.mask))
        shrunk = cube
        if free and covered(cube):
            # E is empty.
            for position in free:
                shrunk = shrunk.restrict_position(position, 0)
        else:
            for position in free:
                if covered(cube.restrict_position(position, 1)):
                    shrunk = shrunk.restrict_position(position, 0)
                elif covered(cube.restrict_position(position, 0)):
                    shrunk = shrunk.restrict_position(position, 1)
        reduced.append(shrunk)
        if oracle is not None:
            reduced_prefix_bdd = oracle.or_(
                reduced_prefix_bdd, oracle.cube_bdd(shrunk)
            )
    return Cover._of(cover.width, reduced)


def verify_minimization(
    original_on: Cover, dc: Cover, minimized: Cover
) -> bool:
    """Exact functional check (used by tests and the synthesis pipeline
    in paranoid mode): minimized ⊇ ON and minimized ⊆ ON ∪ DC."""
    width = original_on.width
    if width > _BDD_ORACLE_WIDTH:
        oracle = _Oracle(width, reference=_care_union(original_on, dc))
        care_bdd = oracle.cover_bdd(_care_union(original_on, dc))
        min_bdd = oracle.cover_bdd(minimized)
        m = oracle._manager
        if m.and_(min_bdd, m.not_(care_bdd)) != m.FALSE:
            return False
        on_bdd = oracle.cover_bdd(original_on)
        with_dc = oracle.or_(min_bdd, oracle.cover_bdd(dc))
        return m.and_(on_bdd, m.not_(with_dc)) == m.FALSE
    care_space = _care_union(original_on, dc)
    if not care_space.contains_cover(minimized):
        return False
    with_dc = _care_union(minimized, dc)
    return with_dc.contains_cover(original_on)
