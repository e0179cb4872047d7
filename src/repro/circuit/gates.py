"""Gate types and multi-valued logic semantics.

Two value systems are provided:

* **Ternary logic** (``ZERO``, ``ONE``, ``X``) — used by the event-driven
  simulator, circuit initialization, and state traversal.  ``X`` means
  "unknown", with the usual monotone semantics: a controlling value on
  any input decides the output even when other inputs are unknown.

* **Five-valued D-calculus** (``ZERO``, ``ONE``, ``X``, ``D``, ``DBAR``)
  — used by the PODEM-based ATPG engines.  ``D`` encodes "1 in the good
  circuit, 0 in the faulty circuit"; ``DBAR`` the opposite.  The tables
  follow Roth's D-algorithm convention.

Gate evaluation is table-driven: each :class:`GateType` owns a reduction
over the ternary or five-valued domain, so adding a gate type means
adding one entry here and nothing elsewhere.
"""

from __future__ import annotations

import enum
from typing import Sequence, Tuple

# --------------------------------------------------------------------------
# Ternary values.  Encoded as small ints so simulators can use them as
# array indices.  X deliberately sorts last.
# --------------------------------------------------------------------------

ZERO = 0
ONE = 1
X = 2

TERNARY_VALUES = (ZERO, ONE, X)

_TERNARY_CHAR = {ZERO: "0", ONE: "1", X: "x"}
_CHAR_TERNARY = {"0": ZERO, "1": ONE, "x": X, "X": X, "-": X, "2": X}


def ternary_to_char(value: int) -> str:
    """Render a ternary value as ``0``/``1``/``x``."""
    try:
        return _TERNARY_CHAR[value]
    except KeyError:
        raise ValueError(f"not a ternary value: {value!r}") from None


def char_to_ternary(char: str) -> int:
    """Parse ``0``/``1``/``x``/``X``/``-`` into a ternary value."""
    try:
        return _CHAR_TERNARY[char]
    except KeyError:
        raise ValueError(f"not a ternary character: {char!r}") from None


def ternary_not(value: int) -> int:
    if value == ZERO:
        return ONE
    if value == ONE:
        return ZERO
    return X


def ternary_and(values: Sequence[int]) -> int:
    """AND over ternary values: any 0 dominates, all 1 gives 1, else X."""
    saw_x = False
    for v in values:
        if v == ZERO:
            return ZERO
        if v == X:
            saw_x = True
    return X if saw_x else ONE


def ternary_or(values: Sequence[int]) -> int:
    """OR over ternary values: any 1 dominates, all 0 gives 0, else X."""
    saw_x = False
    for v in values:
        if v == ONE:
            return ONE
        if v == X:
            saw_x = True
    return X if saw_x else ZERO


def ternary_xor(values: Sequence[int]) -> int:
    """XOR over ternary values: any X poisons the result."""
    acc = ZERO
    for v in values:
        if v == X:
            return X
        acc ^= v
    return acc


# --------------------------------------------------------------------------
# Five-valued D-calculus.
# --------------------------------------------------------------------------

D = 3
DBAR = 4

FIVE_VALUES = (ZERO, ONE, X, D, DBAR)


# A five-valued literal is a (good, faulty) ternary pair; D = (1, 0).
_FIVE_TO_PAIR = {
    ZERO: (ZERO, ZERO),
    ONE: (ONE, ONE),
    X: (X, X),
    D: (ONE, ZERO),
    DBAR: (ZERO, ONE),
}
_PAIR_TO_FIVE = {pair: value for value, pair in _FIVE_TO_PAIR.items()}


def five_split(value: int) -> Tuple[int, int]:
    """Decompose a five-valued literal into (good-circuit, faulty-circuit)
    ternary values."""
    try:
        return _FIVE_TO_PAIR[value]
    except KeyError:
        raise ValueError(f"not a five-valued literal: {value!r}") from None


def five_join(good: int, faulty: int) -> int:
    """Compose a five-valued literal from good/faulty ternary values.

    Pairs that mix a known with an unknown value (e.g. good=1, faulty=X)
    conservatively collapse to ``X`` — the ATPG engines treat them as
    "not yet a D frontier value".
    """
    pair = (good, faulty)
    if pair in _PAIR_TO_FIVE:
        return _PAIR_TO_FIVE[pair]
    return X


def five_not(value: int) -> int:
    good, faulty = five_split(value)
    return five_join(ternary_not(good), ternary_not(faulty))


def five_and(values: Sequence[int]) -> int:
    goods = []
    faults = []
    for v in values:
        good, faulty = five_split(v)
        goods.append(good)
        faults.append(faulty)
    return five_join(ternary_and(goods), ternary_and(faults))


def five_or(values: Sequence[int]) -> int:
    goods = []
    faults = []
    for v in values:
        good, faulty = five_split(v)
        goods.append(good)
        faults.append(faulty)
    return five_join(ternary_or(goods), ternary_or(faults))


def five_xor(values: Sequence[int]) -> int:
    goods = []
    faults = []
    for v in values:
        good, faulty = five_split(v)
        goods.append(good)
        faults.append(faulty)
    return five_join(ternary_xor(goods), ternary_xor(faults))


# --------------------------------------------------------------------------
# Gate types.
# --------------------------------------------------------------------------


class GateType(enum.Enum):
    """Combinational gate primitives recognized by every subsystem.

    This mirrors the paper's setup: the mcnc.genlib library was reduced
    to "only those gate types recognized by the sequential ATPGs", i.e.
    the classical single-output primitives below.
    """

    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    CONST0 = "const0"
    CONST1 = "const1"

    @property
    def min_fanin(self) -> int:
        if self in (GateType.CONST0, GateType.CONST1):
            return 0
        if self in (GateType.BUF, GateType.NOT):
            return 1
        return 2

    @property
    def max_fanin(self) -> int:
        if self in (GateType.CONST0, GateType.CONST1):
            return 0
        if self in (GateType.BUF, GateType.NOT):
            return 1
        return 10**9

    @property
    def is_inverting(self) -> bool:
        """True if an odd sensitized path through this gate inverts."""
        return self in (GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR)

    def controlling_value(self) -> int:
        """The ternary input value that alone decides the output, or ``X``
        if the gate has no controlling value (XOR family, BUF/NOT)."""
        if self in (GateType.AND, GateType.NAND):
            return ZERO
        if self in (GateType.OR, GateType.NOR):
            return ONE
        return X

    def controlled_value(self) -> int:
        """Output produced when some input is at the controlling value."""
        if self is GateType.AND:
            return ZERO
        if self is GateType.NAND:
            return ONE
        if self is GateType.OR:
            return ONE
        if self is GateType.NOR:
            return ZERO
        return X

    def noncontrolling_value(self) -> int:
        """The input value that keeps the gate transparent, or ``X``."""
        controlling = self.controlling_value()
        if controlling == X:
            return X
        return ternary_not(controlling)


def eval_gate(gate: GateType, inputs: Sequence[int]) -> int:
    """Evaluate ``gate`` over ternary inputs, returning a ternary value."""
    if gate is GateType.CONST0:
        return ZERO
    if gate is GateType.CONST1:
        return ONE
    if gate is GateType.BUF:
        return inputs[0]
    if gate is GateType.NOT:
        return ternary_not(inputs[0])
    if gate is GateType.AND:
        return ternary_and(inputs)
    if gate is GateType.NAND:
        return ternary_not(ternary_and(inputs))
    if gate is GateType.OR:
        return ternary_or(inputs)
    if gate is GateType.NOR:
        return ternary_not(ternary_or(inputs))
    if gate is GateType.XOR:
        return ternary_xor(inputs)
    if gate is GateType.XNOR:
        return ternary_not(ternary_xor(inputs))
    raise ValueError(f"unknown gate type {gate!r}")


def eval_gate5(gate: GateType, inputs: Sequence[int]) -> int:
    """Evaluate ``gate`` over five-valued inputs (D-calculus)."""
    if gate is GateType.CONST0:
        return ZERO
    if gate is GateType.CONST1:
        return ONE
    if gate is GateType.BUF:
        return inputs[0]
    if gate is GateType.NOT:
        return five_not(inputs[0])
    if gate is GateType.AND:
        return five_and(inputs)
    if gate is GateType.NAND:
        return five_not(five_and(inputs))
    if gate is GateType.OR:
        return five_or(inputs)
    if gate is GateType.NOR:
        return five_not(five_or(inputs))
    if gate is GateType.XOR:
        return five_xor(inputs)
    if gate is GateType.XNOR:
        return five_not(five_xor(inputs))
    raise ValueError(f"unknown gate type {gate!r}")


def eval_gate2(gate: GateType, inputs: Sequence[int], mask: int) -> int:
    """Evaluate ``gate`` bit-parallel over two-valued packed words.

    Each input is an integer whose bits carry one pattern per position;
    ``mask`` selects the valid bit positions (so Python's unbounded ints
    behave like fixed-width machine words).
    """
    if gate is GateType.CONST0:
        return 0
    if gate is GateType.CONST1:
        return mask
    if gate is GateType.BUF:
        return inputs[0] & mask
    if gate is GateType.NOT:
        return ~inputs[0] & mask
    if gate is GateType.AND:
        acc = mask
        for word in inputs:
            acc &= word
        return acc
    if gate is GateType.NAND:
        acc = mask
        for word in inputs:
            acc &= word
        return ~acc & mask
    if gate is GateType.OR:
        acc = 0
        for word in inputs:
            acc |= word
        return acc & mask
    if gate is GateType.NOR:
        acc = 0
        for word in inputs:
            acc |= word
        return ~acc & mask
    if gate is GateType.XOR:
        acc = 0
        for word in inputs:
            acc ^= word
        return acc & mask
    if gate is GateType.XNOR:
        acc = 0
        for word in inputs:
            acc ^= word
        return ~acc & mask
    raise ValueError(f"unknown gate type {gate!r}")
