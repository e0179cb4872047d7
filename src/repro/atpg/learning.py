"""Illegal-state learning (the SEST-style dynamic state learning).

Structural sequential ATPGs waste most of their time re-proving that
the same unreachable state cubes cannot be justified — the paper's §5
points at exactly this behavior on low-density-of-encoding circuits.
State-learning ATPGs ([20], [21] in the paper) cache such proofs:

* a state cube whose justification search was *exhaustively* completed
  without success is recorded as illegal;
* any later cube that implies a recorded illegal cube (assigns at least
  the same bits to the same values) is rejected immediately.

The cache is also the ablation knob for the "state learning buys an
order of magnitude" claim the paper cites (§5): the SEST engine enables
it, the HITEC engine does not, and a dedicated benchmark flips it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Set, Tuple

StateCube = Tuple[Tuple[int, int], ...]  # sorted ((position, value), ...)


def cube_key(cube: Dict[int, int]) -> StateCube:
    return tuple(sorted(cube.items()))


def cube_implies(specific: Dict[int, int], general: StateCube) -> bool:
    """True when ``specific`` assigns every (position, value) of
    ``general`` — every state matching ``specific`` matches ``general``,
    so a proof that ``general`` is unjustifiable covers ``specific``."""
    for position, value in general:
        if specific.get(position) != value:
            return False
    return True


@dataclasses.dataclass
class LearningStats:
    """Cache effectiveness counters (surfaced in the ablation bench)."""

    cubes_learned: int = 0
    hits: int = 0
    misses: int = 0


class IllegalStateCache:
    """Set of state cubes proven unjustifiable, with implication lookup.

    Lookup is linear in the number of learned cubes, which stays small
    (hundreds) for the circuits in this study; the classical
    implementations used the same strategy.
    """

    def __init__(self, max_entries: int = 5000):
        self._cubes: List[StateCube] = []
        self._seen: Set[StateCube] = set()
        self._max_entries = max_entries
        self.stats = LearningStats()

    def __len__(self) -> int:
        return len(self._cubes)

    def learn(self, cube: Dict[int, int]) -> None:
        """Record a cube proven unjustifiable (caller must guarantee the
        proof was exhaustive, or the cache poisons the search)."""
        if not cube:
            return  # the universal cube can never be illegal
        key = cube_key(cube)
        if key in self._seen or len(self._cubes) >= self._max_entries:
            return
        self._seen.add(key)
        self._cubes.append(key)
        self.stats.cubes_learned += 1

    def is_illegal(self, cube: Dict[int, int]) -> bool:
        """True when a learned cube already covers this one."""
        for learned in self._cubes:
            if cube_implies(cube, learned):
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        return False
