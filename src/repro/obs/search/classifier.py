"""Valid/invalid classification of searched states and state cubes.

The paper's §5 mechanism — structural ATPG wasting its backward search
in the unreachable part of the state space — becomes measurable once
every state the search touches is classified against the circuit's
valid (reachable) set.  One :class:`StateClassifier` serves one engine
on one circuit: on first use it fetches the circuit's shared symbolic
reachable set (:func:`repro.analysis.density.reachable_states`, the
same fixpoint lint and Tables 6-8 read) and memoizes every verdict, so
the BDD fixpoint is paid once per circuit — not per engine, run or
fault — plus one cheap intersection per *distinct* cube.

Two classification granularities:

* **concrete states** — membership of a fully-specified register state
  (``ReachableStates.contains``); what the sim-based engine streams.
* **state cubes** — the partial assignments structural justification
  proposes.  A cube is *invalid* iff it intersects no valid state
  (``ReachableStates.intersects``); proving such cubes unjustifiable is
  exactly the wasted effort the paper attributes the blowup to.

When the BDD engine cannot analyze a circuit (no reset state, manager
failure) the classifier falls back to the explicit-enumeration oracle
(:func:`repro.analysis.density.explicit_valid_states`) for circuits
small enough to enumerate; past that, verdicts are ``None``
(unclassified) and the observer counts them instead of guessing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set, Tuple

from ...circuit.netlist import Circuit
from ...errors import AnalysisError, ReproError

if TYPE_CHECKING:  # pragma: no cover
    from ...analysis.density import ReachableStates

State = Tuple[int, ...]
StateCube = Tuple[Tuple[int, int], ...]  # sorted ((position, value), ...)


def cube_key(cube: Dict[int, int]) -> StateCube:
    """Canonical hashable form of a state cube (matches
    :func:`repro.atpg.learning.cube_key`; duplicated here so the
    observability layer never imports the engine package)."""
    return tuple(sorted(cube.items()))


class StateClassifier:
    """Memoized valid/invalid oracle for one circuit.

    Verdicts: ``True`` = valid (the state is reachable / the cube
    intersects the reachable set), ``False`` = invalid, ``None`` =
    unclassifiable (no oracle could be built).
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._num_dffs = circuit.num_dffs()
        self._reachable: Optional[ReachableStates] = None
        self._explicit: Optional[Set[State]] = None
        self._oracle_ready = False
        self._unavailable = False
        self._cube_memo: Dict[StateCube, Optional[bool]] = {}
        self._state_memo: Dict[State, Optional[bool]] = {}

    # -- oracle construction ------------------------------------------------

    def _ensure_oracle(self) -> None:
        if self._oracle_ready:
            return
        self._oracle_ready = True
        # Imported here, not at module scope: repro.analysis pulls in
        # the engine package, and the engines import *this* module —
        # deferring to first use keeps `import repro.obs.search` safe
        # from any entry point.
        from ...analysis.density import (
            explicit_valid_states,
            reachable_states,
        )

        try:
            self._reachable = reachable_states(self.circuit)
            return
        except (AnalysisError, ReproError, RecursionError):
            self._reachable = None
        try:
            self._explicit = explicit_valid_states(self.circuit)
        except (AnalysisError, ReproError):
            self._explicit = None
            self._unavailable = True

    @property
    def available(self) -> bool:
        """Whether any oracle (BDD or explicit) could be built."""
        self._ensure_oracle()
        return not self._unavailable

    def num_valid_states(self) -> Optional[int]:
        self._ensure_oracle()
        if self._reachable is not None:
            return self._reachable.count()
        if self._explicit is not None:
            return len(self._explicit)
        return None

    # -- classification -----------------------------------------------------

    def classify_state(self, state: Sequence[int]) -> Optional[bool]:
        """Is this concrete register state reachable from reset?"""
        key = tuple(int(bit) for bit in state)
        if key in self._state_memo:
            return self._state_memo[key]
        self._ensure_oracle()
        verdict: Optional[bool]
        if self._reachable is not None:
            verdict = self._reachable.contains(key)
        elif self._explicit is not None:
            verdict = key in self._explicit
        else:
            verdict = None
        self._state_memo[key] = verdict
        return verdict

    def classify_cube(self, cube: Dict[int, int]) -> Optional[bool]:
        """Does this partial state assignment intersect the valid set?

        A fully-specified cube degenerates to state membership; the
        empty cube is valid whenever a reset state exists at all.
        """
        key = cube_key(cube)
        if key in self._cube_memo:
            return self._cube_memo[key]
        self._ensure_oracle()
        verdict: Optional[bool]
        if self._reachable is not None:
            verdict = self._reachable.intersects(cube)
        elif self._explicit is not None:
            verdict = any(
                all(state[pos] == val for pos, val in key)
                for state in self._explicit
            )
        else:
            verdict = None
        self._cube_memo[key] = verdict
        return verdict
