"""Small shared helpers used across subsystems.

Kept deliberately tiny: anything with domain meaning lives in its own
subpackage.  These are generic conveniences (deterministic RNG plumbing,
bit twiddling, name uniquification) that several substrates need.
"""

from __future__ import annotations

import itertools
import random
import sys
from typing import Dict, Iterable, Iterator, List, Sequence


def make_rng(seed: int) -> random.Random:
    """Return a private :class:`random.Random` for the given seed.

    Every randomized component in the library (FSM generation, random
    test-pattern fill, simulation-based ATPG) takes an explicit integer
    seed and derives its generator through this function, so experiment
    results are reproducible run-to-run and independent of global
    ``random`` state.
    """
    return random.Random(seed)


# ``randrange(2)`` is ``getrandbits(2)`` retried while it reads 2 or 3,
# and ``getrandbits(2)`` keeps the top two bits of one 32-bit output
# word.  So a word is accepted when its bit 31 is 0, and then yields its
# bit 30; in a word's top byte that is "below 128", giving ``byte >> 6``.
_TOP_BYTE_BIT = bytes(byte >> 6 for byte in range(256))
_TOP_BYTE_REJECTED = bytes(range(128, 256))


def random_bits(rng: random.Random, count: int) -> bytes:
    """``count`` draws of ``rng.randrange(2)`` (one byte, 0 or 1, each),
    made in bulk.

    Exactly the same stream, and ``rng`` is left in the same state: each
    round draws one 32-bit word per bit still missing — never more
    words than the per-bit draws would consume — keeps the accepted
    words' bits in order, and draws again for the rejected ones.
    """
    bits = b""
    while len(bits) < count:
        missing = count - len(bits)
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        bits += words[3::4].translate(_TOP_BYTE_BIT, _TOP_BYTE_REJECTED)
    return bits


def bits_needed(count: int) -> int:
    """Minimum number of bits needed to give `count` items distinct codes.

    ``bits_needed(1) == 1`` by convention (a 1-state machine still gets a
    register in the synthesized circuit).
    """
    if count < 1:
        raise ValueError(f"bits_needed requires a positive count, got {count}")
    return max(1, (count - 1).bit_length())


def int_to_bits(value: int, width: int) -> List[int]:
    """Little-endian bit list of ``value``, exactly ``width`` long.

    Bit 0 of the result is the least-significant bit of ``value``.
    """
    if value < 0:
        raise ValueError(f"int_to_bits requires a non-negative value, got {value}")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Inverse of :func:`int_to_bits` (little-endian)."""
    result = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        result |= bit << i
    return result


def unique_name(base: str, taken: Iterable[str]) -> str:
    """Return ``base`` or ``base_1``, ``base_2``, ... — first not in ``taken``.

    ``taken`` is consumed into a set, so pass a container when calling in
    a loop and maintain it yourself for efficiency.
    """
    taken_set = set(taken)
    if base not in taken_set:
        return base
    for i in itertools.count(1):
        candidate = f"{base}_{i}"
        if candidate not in taken_set:
            return candidate
    raise AssertionError("unreachable")


class NameAllocator:
    """Stateful unique-name factory for netlist construction.

    Synthesis, retiming and time-frame expansion all create many
    intermediate signals; this class centralizes the "next free name"
    bookkeeping so generated netlists never collide.
    """

    def __init__(self, taken: Iterable[str] = ()):
        self._taken = set(taken)
        self._counters: Dict[str, int] = {}

    def reserve(self, name: str) -> None:
        """Mark ``name`` as used without allocating it."""
        self._taken.add(name)

    def fresh(self, base: str) -> str:
        """Allocate and return a new unique name derived from ``base``."""
        if base not in self._taken:
            self._taken.add(base)
            return base
        counter = self._counters.get(base, 0)
        while True:
            counter += 1
            candidate = f"{base}_{counter}"
            if candidate not in self._taken:
                self._counters[base] = counter
                self._taken.add(candidate)
                return candidate

    def __contains__(self, name: str) -> bool:
        return name in self._taken


def chunked(items: Sequence, size: int) -> Iterator[Sequence]:
    """Yield successive slices of ``items`` of length ``size`` (last may
    be shorter).  Used by the bit-parallel simulators to group patterns
    into machine words."""
    if size < 1:
        raise ValueError(f"chunk size must be positive, got {size}")
    for start in range(0, len(items), size):
        yield items[start : start + size]


if sys.version_info >= (3, 10):
    # Number of set bits in a non-negative integer.
    popcount = int.bit_count
else:

    def popcount(value: int) -> int:
        """Number of set bits in a non-negative integer."""
        return bin(value).count("1")


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of a non-negative ``mask``,
    ascending."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def format_engineering(value: float) -> str:
    """Format a number the way the paper's tables do.

    Small values print plainly (``32``, ``0.73``); large or tiny values
    use compact scientific notation (``5.24E5``, ``2.0E-4``).
    """
    if value == 0:
        return "0"
    magnitude = abs(value)
    if 0.01 <= magnitude < 100000:
        if float(value).is_integer():
            return str(int(value))
        return f"{value:.2f}".rstrip("0").rstrip(".")
    mantissa_exp = f"{value:.2E}"
    mantissa, exponent = mantissa_exp.split("E")
    mantissa = mantissa.rstrip("0").rstrip(".")
    exp_value = int(exponent)
    return f"{mantissa}E{exp_value}"
