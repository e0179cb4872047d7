"""Valid states and the paper's *density of encoding* (§5, Tables 6-7).

Definitions (paper §5):

* a **valid state** is a register state reachable from the reset state;
* the **total state space** is 2^#DFF;
* the **density of encoding** is valid / total — the paper's key
  indicator of sequential-ATPG complexity.

Computation: symbolic reachability over BDDs.  Next-state functions come
from :class:`repro.logic.bddcircuit.CircuitBdds`; each image step uses
the output-splitting range construction (no transition relation, no
primed variables), with primary inputs implicitly quantified.  The
frontier-based fixpoint handles the 2^28-state retimed circuits of the
paper in well under a second.  Each circuit computes it once:
:func:`reachable_states` memoizes one compacted :class:`ReachableStates`
per live circuit, shared by lint, the search classifiers and Tables 6-8.

An explicit breadth-first traversal over concrete states
(:func:`explicit_valid_states`) serves as the cross-check oracle in the
tests (it enumerates inputs, so it is only usable for small circuits).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Sequence, Set, Tuple

from ..circuit.gates import ONE, X
from ..circuit.memo import CircuitMemo
from ..circuit.netlist import Circuit
from ..errors import AnalysisError
from ..logic.bdd import BddManager
from ..logic.bddcircuit import CircuitBdds
from ..sim.logicsim import TernarySimulator


@dataclasses.dataclass
class ReachabilityReport:
    """Valid-state analysis of one circuit (Table 6/7 columns)."""

    circuit_name: str
    num_dffs: int
    num_valid_states: int
    iterations: int  # image steps to the fixpoint (diameter bound)

    @property
    def total_states(self) -> int:
        return 1 << self.num_dffs

    @property
    def density_of_encoding(self) -> float:
        return self.num_valid_states / float(self.total_states)


class ReachableStates:
    """The valid-state set of one circuit, kept in compact form.

    Construction runs the whole fixpoint, then copies the reachable BDD
    into a fresh manager over the state variables alone and drops the
    circuit's BDDs (next-state functions, image intermediates, ITE
    caches).  What is kept is the reachable set's own cone — a few
    hundred nodes on the Table 3 pairs — plus its count and iteration
    count.  ROBDDs are canonical, so every query answers exactly as it
    would on the full manager.
    """

    def __init__(self, circuit: Circuit):
        circuit.check()
        if any(dff.init == X for dff in circuit.dffs()):
            raise AnalysisError(
                f"circuit {circuit.name!r} has no defined reset state; "
                "valid states are defined relative to one (paper §5)"
            )
        self.circuit_name = circuit.name
        self._state_vars = list(circuit.dff_names())
        bdds = CircuitBdds(circuit)
        full = bdds.manager
        reset_cube = {
            name: (1 if circuit.node(name).init == ONE else 0)
            for name in self._state_vars
        }
        ns_functions = [fn for _, fn in bdds.next_state_functions()]
        reached = full.cube(reset_cube)
        frontier = reached
        iterations = 0
        while frontier != full.FALSE:
            iterations += 1
            image = full.range_of(ns_functions, self._state_vars, frontier)
            new = full.and_(image, full.not_(reached))
            reached = full.or_(reached, new)
            frontier = new
        self._iterations = iterations
        # State variables lead the default order, so a state-only
        # manager gives each DFF its declaration position as its level.
        self._manager = BddManager(self._state_vars)
        self._reachable = full.transfer(reached, self._manager)
        self._count = self._manager.satcount(self._reachable, self._state_vars)

    def count(self) -> int:
        return self._count

    def report(self) -> ReachabilityReport:
        return ReachabilityReport(
            circuit_name=self.circuit_name,
            num_dffs=len(self._state_vars),
            num_valid_states=self._count,
            iterations=self._iterations,
        )

    def contains(self, state: Sequence[int]) -> bool:
        """Is this concrete register state valid (reachable)?"""
        assignment = {
            name: int(bit)
            for name, bit in zip(self._state_vars, state)
        }
        return bool(self._manager.evaluate(self._reachable, assignment))

    def intersects(self, cube: Dict[int, int]) -> bool:
        """Does any valid state satisfy this partial assignment?

        ``cube`` maps DFF positions (declaration order) to 0/1; an
        empty cube matches every state, so it intersects whenever the
        circuit has a reset state at all.  This is the membership test
        the search observatory applies to the state *cubes* structural
        justification proposes — a cube that misses the valid set
        entirely is provably wasted effort (paper §5).
        """
        # A DFF's position is its level in the state-only manager.
        by_level = {int(pos): int(val) for pos, val in cube.items()}
        return not self._manager.cofactor_is_false(self._reachable, by_level)

    def enumerate(self, limit: int = 100_000) -> List[Tuple[int, ...]]:
        """List valid states (DFF declaration order), up to ``limit``."""
        result: List[Tuple[int, ...]] = []
        for assignment in self._manager.iter_satisfying(
            self._reachable, self._state_vars
        ):
            result.append(
                tuple(assignment[name] for name in self._state_vars)
            )
            if len(result) >= limit:
                raise AnalysisError(
                    f"more than {limit} valid states; raise the limit"
                )
        return result


_REACHABLE: CircuitMemo[ReachableStates] = CircuitMemo()


def reachable_states(circuit: Circuit) -> ReachableStates:
    """The circuit's one shared :class:`ReachableStates`.

    Lint (DRC106), the search observatory's classifiers and Tables 6-8
    all read the same fixpoint; it is rebuilt only after the circuit
    changes structure or the per-circuit memos are cleared (see
    :func:`repro.sim.compile.clear_program_cache`).
    """
    return _REACHABLE.get(circuit, ReachableStates)


def reachability_report(circuit: Circuit) -> ReachabilityReport:
    """One-call Table 6/7 row: valid states + density of encoding."""
    return reachable_states(circuit).report()


def density_of_encoding(circuit: Circuit) -> float:
    return reachability_report(circuit).density_of_encoding


def explicit_valid_states(
    circuit: Circuit, max_states: int = 50_000
) -> Set[Tuple[int, ...]]:
    """Oracle: BFS over concrete states, enumerating all input vectors.

    Exponential in #PI — use only on small circuits (tests cross-check
    the BDD engine against this)."""
    simulator = TernarySimulator(circuit)
    initial = simulator.initial_state()
    if X in initial:
        raise AnalysisError("explicit traversal needs a full reset state")
    num_inputs = len(circuit.inputs)
    if num_inputs > 14:
        raise AnalysisError(
            f"{num_inputs} inputs is too many for explicit input "
            "enumeration; use ReachableStates"
        )
    all_vectors = [
        list(bits) for bits in itertools.product((0, 1), repeat=num_inputs)
    ]
    seen: Set[Tuple[int, ...]] = {tuple(initial)}
    frontier = [tuple(initial)]
    while frontier:
        next_frontier = []
        for state in frontier:
            for vector in all_vectors:
                _, nxt = simulator.step(vector, state)
                key = tuple(nxt)
                if key not in seen:
                    seen.add(key)
                    if len(seen) > max_states:
                        raise AnalysisError(
                            "explicit traversal exceeded max_states"
                        )
                    next_frontier.append(key)
        frontier = next_frontier
    return seen
