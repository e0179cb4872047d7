"""Cube and cover representation for two-level (SOP) logic.

A **cube** over ``n`` binary inputs is a product term; we store it as a
pair of bit masks ``(mask, value)``:

* bit ``i`` of ``mask``  — 1 iff input ``i`` appears as a literal;
* bit ``i`` of ``value`` — the required polarity when the literal is
  present (bits outside ``mask`` must be 0, keeping the representation
  canonical so cubes compare with ``==``).

A **cover** is an ordered list of cubes implementing the OR of its
products.  This is the representation the espresso-style minimizer and
the synthesis SOP pipeline operate on; it matches the textual PLA/KISS
convention ``0``, ``1``, ``-`` per input column.

Validation happens at the public constructor only: ``Cube(width, mask,
value)`` rejects out-of-range and non-canonical masks.  Cubes the
algebra derives from already-valid cubes (cofactors, expansions,
intersections, complements) go through the private ``Cube._raw``
constructor, which skips the check.

The cofactor of a cover by a cube ``c`` is one masked pass: a cube
survives iff it agrees with ``c`` on their shared literals, and it
loses every literal ``c`` fixes.  Containment (``c ⊆ F`` iff ``F_c`` is
a tautology), tautology and complement recurse on bare ``(mask, value)``
int pairs, with no per-literal loops.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, Optional, Tuple

from .._util import bit_positions, popcount
from ..errors import ReproError

# A cube as a bare ``(mask, value)`` pair, used inside the recursions.
_Pair = Tuple[int, int]

# Frozen-dataclass construction without ``__init__``/``__post_init__``.
_new = object.__new__
_set = object.__setattr__


class CubeError(ReproError):
    """Malformed cube or cover operation."""


@dataclasses.dataclass(frozen=True)
class Cube:
    """One product term over ``width`` inputs (immutable)."""

    width: int
    mask: int
    value: int

    def __post_init__(self):
        limit = (1 << self.width) - 1
        if self.mask & ~limit:
            raise CubeError(f"mask {self.mask:#x} exceeds width {self.width}")
        if self.value & ~self.mask:
            raise CubeError("value bits outside mask (non-canonical cube)")

    # -- construction -------------------------------------------------------

    @classmethod
    def _raw(cls, width: int, mask: int, value: int) -> "Cube":
        """Unvalidated constructor for cubes derived from valid ones."""
        cube = _new(cls)
        _set(cube, "width", width)
        _set(cube, "mask", mask)
        _set(cube, "value", value)
        return cube

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Parse ``0``/``1``/``-`` per column; column 0 = input 0."""
        mask = 0
        value = 0
        for i, char in enumerate(text):
            if char == "0":
                mask |= 1 << i
            elif char == "1":
                mask |= 1 << i
                value |= 1 << i
            elif char in "-xX2":
                pass
            else:
                raise CubeError(f"bad cube character {char!r} in {text!r}")
        return cls(width=len(text), mask=mask, value=value)

    @classmethod
    def universal(cls, width: int) -> "Cube":
        """The cube with no literals (covers the whole space)."""
        return cls(width=width, mask=0, value=0)

    @classmethod
    def minterm(cls, width: int, assignment: int) -> "Cube":
        """The fully-specified cube for one input assignment."""
        full = (1 << width) - 1
        return cls(width=width, mask=full, value=assignment & full)

    # -- queries --------------------------------------------------------------

    def to_string(self) -> str:
        chars = []
        for i in range(self.width):
            if not (self.mask >> i) & 1:
                chars.append("-")
            elif (self.value >> i) & 1:
                chars.append("1")
            else:
                chars.append("0")
        return "".join(chars)

    def literal_count(self) -> int:
        return popcount(self.mask)

    def num_minterms(self) -> int:
        return 1 << (self.width - self.literal_count())

    def literal(self, position: int) -> Optional[int]:
        """Polarity of input ``position`` in this cube (None if absent)."""
        if not (self.mask >> position) & 1:
            return None
        return (self.value >> position) & 1

    def literals(self) -> List[Tuple[int, int]]:
        """``(position, polarity)`` of every literal, ascending."""
        value = self.value
        return [(p, (value >> p) & 1) for p in bit_positions(self.mask)]

    def contains(self, other: "Cube") -> bool:
        """True iff every minterm of ``other`` is a minterm of ``self``."""
        self._check_width(other)
        if self.mask & ~other.mask:
            return False  # self constrains an input other leaves free
        return (other.value & self.mask) == self.value

    def contains_minterm(self, assignment: int) -> bool:
        return (assignment & self.mask) == self.value

    def intersects(self, other: "Cube") -> bool:
        """True iff the cubes share at least one minterm."""
        self._check_width(other)
        common = self.mask & other.mask
        return (self.value & common) == (other.value & common)

    def intersection(self, other: "Cube") -> Optional["Cube"]:
        """The shared sub-cube, or None if disjoint."""
        if not self.intersects(other):
            return None
        return Cube._raw(
            self.width, self.mask | other.mask, self.value | other.value
        )

    def distance(self, other: "Cube") -> int:
        """Number of inputs on which the cubes conflict (0 = intersecting)."""
        self._check_width(other)
        common = self.mask & other.mask
        return popcount((self.value ^ other.value) & common)

    # -- transformations --------------------------------------------------------

    def expand_position(self, position: int) -> "Cube":
        """Drop the literal at ``position`` (raise-to-don't-care)."""
        bit = 1 << position
        if not self.mask & bit:
            raise CubeError(f"input {position} is already free in this cube")
        return Cube._raw(self.width, self.mask & ~bit, self.value & ~bit)

    def restrict_position(self, position: int, polarity: int) -> "Cube":
        """Add (or overwrite) a literal at ``position``."""
        bit = 1 << position
        if bit >> self.width:
            raise CubeError(f"input {position} exceeds width {self.width}")
        value = (self.value & ~bit) | (bit if polarity else 0)
        return Cube._raw(self.width, self.mask | bit, value)

    def cofactor(self, position: int, polarity: int) -> Optional["Cube"]:
        """Shannon cofactor with respect to ``input[position] = polarity``.

        Returns None when the cube vanishes (requires the other polarity);
        otherwise the literal at ``position`` is removed.
        """
        bit = 1 << position
        if self.mask & bit:
            if bool(self.value & bit) != bool(polarity):
                return None
            return self.expand_position(position)
        return self

    def _check_width(self, other: "Cube") -> None:
        if self.width != other.width:
            raise CubeError(
                f"cube width mismatch: {self.width} vs {other.width}"
            )

    def __str__(self) -> str:
        return self.to_string()


class Cover:
    """A sum of product terms over a fixed input width."""

    def __init__(self, width: int, cubes: Iterable[Cube] = ()):
        self.width = width
        self.cubes: List[Cube] = []
        for cube in cubes:
            self.add(cube)

    @classmethod
    def _of(cls, width: int, cubes: List[Cube]) -> "Cover":
        """Unchecked constructor: ``cubes`` are already ``width`` wide."""
        cover = cls.__new__(cls)
        cover.width = width
        cover.cubes = cubes
        return cover

    @classmethod
    def _from_pairs(cls, width: int, pairs: Iterable[_Pair]) -> "Cover":
        raw = Cube._raw
        return cls._of(width, [raw(width, m, v) for m, v in pairs])

    @classmethod
    def from_strings(cls, width: int, rows: Iterable[str]) -> "Cover":
        cover = cls(width)
        for row in rows:
            cube = Cube.from_string(row)
            if cube.width != width:
                raise CubeError(
                    f"row {row!r} has width {cube.width}, expected {width}"
                )
            cover.add(cube)
        return cover

    @classmethod
    def empty(cls, width: int) -> "Cover":
        return cls(width)

    @classmethod
    def universe(cls, width: int) -> "Cover":
        return cls(width, [Cube.universal(width)])

    def add(self, cube: Cube) -> None:
        if cube.width != self.width:
            raise CubeError(
                f"cube width {cube.width} does not match cover width "
                f"{self.width}"
            )
        self.cubes.append(cube)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __bool__(self) -> bool:
        return bool(self.cubes)

    def literal_count(self) -> int:
        """Total literals — the classical two-level area estimate."""
        return sum(popcount(c.mask) for c in self.cubes)

    def covers_minterm(self, assignment: int) -> bool:
        return any(c.contains_minterm(assignment) for c in self.cubes)

    def evaluate(self, assignment: int) -> int:
        return 1 if self.covers_minterm(assignment) else 0

    def cofactor_cube(self, cube: Cube) -> "Cover":
        """Cofactor by every literal of ``cube`` in one masked pass (the
        Shannon cofactor F_c used for containment checks: c ⊆ F iff F_c
        is a tautology).  Surviving cubes keep their order."""
        return Cover._from_pairs(
            self.width, _cofactor(self.cubes, cube.mask, cube.value)
        )

    def is_tautology(self) -> bool:
        """Exact tautology check by recursive Shannon splitting.

        Fast paths: a literal-free cube is the universe; an empty cover
        is not a tautology; a cover unate in every used variable is a
        tautology iff it contains the universal cube (standard unate
        reduction theorem).
        """
        return _tautology([(c.mask, c.value) for c in self.cubes])

    def contains_cube(self, cube: Cube) -> bool:
        """True iff ``cube`` (all its minterms) is covered by this cover."""
        return _tautology(_cofactor(self.cubes, cube.mask, cube.value))

    def contains_cover(self, other: "Cover") -> bool:
        return all(self.contains_cube(c) for c in other.cubes)

    def single_cube_containment(self) -> "Cover":
        """Drop every cube contained in another single cube (cheap prune)."""
        return Cover._from_pairs(
            self.width,
            _single_cube_containment([(c.mask, c.value) for c in self.cubes]),
        )

    def complement(self) -> "Cover":
        """Exact complement by Shannon recursion.

        Used to turn a set of *used* state codes into the unused-code
        don't-care cover during synthesis (the ``extract_seq_dc``
        analog), and by tests as an oracle.
        """
        return Cover._from_pairs(
            self.width, _complement([(c.mask, c.value) for c in self.cubes])
        )

    def to_strings(self) -> List[str]:
        return [c.to_string() for c in self.cubes]

    def __repr__(self) -> str:
        return f"Cover(width={self.width}, cubes={len(self.cubes)})"


def _cofactor(cubes: Iterable[Cube], mask: int, value: int) -> List[_Pair]:
    """Cofactor by the cube ``(mask, value)``: drop the cubes that
    conflict with it on a shared literal, strip its literals from the
    rest."""
    keep = ~mask
    return [
        (c.mask & keep, c.value & keep)
        for c in cubes
        if not (c.value ^ value) & c.mask & mask
    ]


def _split(pairs: List[_Pair], bit: int) -> Tuple[List[_Pair], List[_Pair]]:
    """The two Shannon cofactors of ``pairs`` on the variable ``bit``."""
    keep = ~bit
    low = [(m & keep, v) for m, v in pairs if not v & bit]
    high = [(m & keep, v & keep) for m, v in pairs if not (m ^ v) & bit]
    return low, high


def _most_binate_variable(pairs: List[_Pair], candidates: int) -> int:
    """Pick the splitting variable among the ``candidates`` bits, as a
    one-bit mask: the one with the most cubes in its minority polarity,
    then the one appearing in the most cubes, then the lowest position."""
    best = 0
    best_key = None
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        total = sum(1 for mask, _ in pairs if mask & bit)
        ones = sum(1 for _, value in pairs if value & bit)
        key = (min(total - ones, ones), total)
        if best_key is None or key > best_key:
            best_key = key
            best = bit
    return best


def _single_cube_containment(pairs: List[_Pair]) -> List[_Pair]:
    kept: List[_Pair] = []
    # Larger cubes first so small ones get absorbed.
    for mask, value in sorted(pairs, key=lambda p: popcount(p[0])):
        if not any(
            not k_mask & ~mask and value & k_mask == k_value
            for k_mask, k_value in kept
        ):
            kept.append((mask, value))
    return kept


def _complement(pairs: List[_Pair]) -> List[_Pair]:
    if not pairs:
        return [(0, 0)]
    used = 0
    for mask, _ in pairs:
        if not mask:
            return []
        used |= mask
    if len(pairs) == 1:
        # De Morgan on a single cube: one complemented literal per cube.
        mask, value = pairs[0]
        return [(1 << p, ~value & (1 << p)) for p in bit_positions(mask)]
    bit = _most_binate_variable(pairs, used)
    low, high = _split(pairs, bit)
    result = [(m | bit, v) for m, v in _complement(low)]
    result += [(m | bit, v | bit) for m, v in _complement(high)]
    return _single_cube_containment(result)


def _tautology(pairs: List[_Pair]) -> bool:
    if not pairs:
        return False
    zeros = 0
    ones = 0
    for mask, value in pairs:
        if not mask:
            return True
        ones |= value
        zeros |= mask ^ value
    # Unate reduction: in a cover unate in every variable, tautology
    # requires the universal cube, which we just ruled out.
    binate = zeros & ones
    if not binate:
        return False
    low, high = _split(pairs, _most_binate_variable(pairs, binate))
    return _tautology(low) and _tautology(high)
