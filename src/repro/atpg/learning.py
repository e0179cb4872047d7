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

from typing import Dict, List, Optional, Set, Tuple

from ..obs import Counter, MetricsRegistry

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


class LearningStats:
    """Cache effectiveness counters (surfaced in the ablation bench).

    A read-only view over the cache's ``atpg.learn.*`` obs counters:
    whoever holds the :class:`~repro.obs.MetricsRegistry` sees the same
    numbers this object reports.
    """

    __slots__ = ("_learned", "_hits", "_misses")

    def __init__(
        self,
        learned: Optional[Counter] = None,
        hits: Optional[Counter] = None,
        misses: Optional[Counter] = None,
    ):
        self._learned = learned if learned is not None else Counter()
        self._hits = hits if hits is not None else Counter()
        self._misses = misses if misses is not None else Counter()

    @property
    def cubes_learned(self) -> int:
        return self._learned.value

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def note_learned(self) -> None:
        self._learned.inc()

    def note_hit(self) -> None:
        self._hits.inc()

    def note_miss(self) -> None:
        self._misses.inc()

    def __repr__(self) -> str:  # keeps the old dataclass ergonomics
        return (
            f"LearningStats(cubes_learned={self.cubes_learned}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class IllegalStateCache:
    """Set of state cubes proven unjustifiable, with implication lookup.

    Lookup is linear in the number of learned cubes, which stays small
    (hundreds) for the circuits in this study; the classical
    implementations used the same strategy.
    """

    def __init__(
        self,
        max_entries: int = 5000,
        metrics: Optional[MetricsRegistry] = None,
        **labels: object,
    ):
        self._cubes: List[StateCube] = []
        self._seen: Set[StateCube] = set()
        self._max_entries = max_entries
        registry = metrics if metrics is not None else MetricsRegistry()
        self.stats = LearningStats(
            learned=registry.counter("atpg.learn.cubes_learned", **labels),
            hits=registry.counter("atpg.learn.hits", **labels),
            misses=registry.counter("atpg.learn.misses", **labels),
        )

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
        self.stats.note_learned()

    def is_illegal(self, cube: Dict[int, int]) -> bool:
        """True when a learned cube already covers this one."""
        for learned in self._cubes:
            if cube_implies(cube, learned):
                self.stats.note_hit()
                return True
        self.stats.note_miss()
        return False
