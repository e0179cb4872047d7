"""Search-state observer: stream examined states, tally wasted effort.

One :class:`SearchObserver` watches one engine *run*: every state cube
the backward justification proposes (HITEC/SEST) and every concrete
state a simulation-based run drives through is streamed in, classified
by the circuit's shared :class:`~.classifier.StateClassifier`, and
tallied into a :class:`SearchTally`, whose ``counters()`` are the
``search.*`` keys:

========================  ==================================================
``search.states_examined``  examine events (one per streamed cube/state)
``search.valid_events``     examine events that hit the valid set
``search.invalid_events``   examine events provably outside the valid set
``search.unique_valid``     distinct valid cubes/states examined this run
``search.unique_invalid``   distinct invalid cubes/states examined this run
``search.partial_states``   X-containing states dropped from trace replay
``search.learned_prunes``   cubes rejected by SEST's illegal-state cache
``search.unclassified``     events with no oracle verdict (tiny counter)
========================  ==================================================

Everything increments at deterministic points of the search trajectory
— never from wall time — so the tallies are byte-identical across
``--jobs`` levels, like every other WorkClock-ordered counter.  The
per-fault dwell is read off the tally by the engine's fault book
(``repro.atpg.result.FaultBook``), which brackets each targeted fault.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Set, Tuple

from .classifier import StateClassifier, StateCube, cube_key

State = Tuple[int, ...]

@dataclasses.dataclass
class SearchTally:
    """Per-run aggregate of one observer (mirrors the ``search.*`` keys)."""

    examined_events: int = 0
    valid_events: int = 0
    invalid_events: int = 0
    unique_valid: int = 0
    unique_invalid: int = 0
    partial_states: int = 0
    learned_prunes: int = 0
    unclassified: int = 0

    def counters(self) -> Dict[str, int]:
        """The dotted ``search.*`` counter block for ``AtpgResult``."""
        return {
            "search.states_examined": self.examined_events,
            "search.valid_events": self.valid_events,
            "search.invalid_events": self.invalid_events,
            "search.unique_valid": self.unique_valid,
            "search.unique_invalid": self.unique_invalid,
            "search.partial_states": self.partial_states,
            "search.learned_prunes": self.learned_prunes,
            "search.unclassified": self.unclassified,
        }

    @property
    def waste_fraction(self) -> Optional[float]:
        """Invalid fraction of classified examine events (None = no data)."""
        classified = self.valid_events + self.invalid_events
        if classified == 0:
            return None
        return self.invalid_events / classified


class SearchObserver:
    """Live observer for one engine run.

    The classifier is shared (one per circuit, across faults and runs);
    uniqueness is tracked per observer, so ``unique_*`` counts are
    "distinct cubes examined by *this* run".
    """

    def __init__(self, classifier: StateClassifier):
        self.classifier = classifier
        self.tally = SearchTally()
        self._seen_cubes: Set[StateCube] = set()
        self._seen_states: Set[State] = set()

    # -- streaming ----------------------------------------------------------

    def _tally_verdict(self, verdict: Optional[bool], fresh: bool) -> None:
        tally = self.tally
        tally.examined_events += 1
        if verdict is None:
            tally.unclassified += 1
            return
        if verdict:
            tally.valid_events += 1
            if fresh:
                tally.unique_valid += 1
        else:
            tally.invalid_events += 1
            if fresh:
                tally.unique_invalid += 1

    def observe_cube(self, cube: Dict[int, int]) -> None:
        """One backward-search objective (partial state assignment)."""
        key = cube_key(cube)
        fresh = key not in self._seen_cubes
        if fresh:
            self._seen_cubes.add(key)
        self._tally_verdict(self.classifier.classify_cube(cube), fresh)

    def observe_state(self, state: Sequence[int]) -> None:
        """One concrete machine state an engine drove through."""
        key = tuple(int(bit) for bit in state)
        fresh = key not in self._seen_states
        if fresh:
            self._seen_states.add(key)
        self._tally_verdict(self.classifier.classify_state(key), fresh)

    def note_partial_state(self) -> None:
        """An X-containing state skipped by trace replay (satellite of
        the paper's "#states HITEC trav" reconciliation)."""
        self.tally.partial_states += 1

    def note_learned_prune(self) -> None:
        """A cube rejected by the illegal-state cache without re-proof."""
        self.tally.learned_prunes += 1

    def counters(self) -> Dict[str, int]:
        return self.tally.counters()
