"""Valid states and the paper's *density of encoding* (§5, Tables 6-7).

Definitions (paper §5):

* a **valid state** is a register state reachable from the reset state;
* the **total state space** is 2^#DFF;
* the **density of encoding** is valid / total — the paper's key
  indicator of sequential-ATPG complexity.

Computation: symbolic breadth-first reachability over BDDs.  Next-state
functions come from :func:`repro.logic.bddcircuit.node_functions`; each
image step uses the output-splitting range construction (no transition
relation, no primed variables), with primary inputs implicitly
quantified.

A retimed circuit is not traversed over its own registers.  Its
reachable set is *lifted* from a register-merged core (the approach of
Kuehlmann & Baumgartner, "Transformation-based verification using
generalized retiming", CAV 2001: shrink the registers by retiming, then
lift reachability back):

* a **wave gate** is a non-PO gate that can move forward
  (:func:`repro.retime.atomic.can_move_forward`) whose fanins are
  pairwise-distinct DFFs, each read only by that gate and none a PO;
* forward-moving every wave gate ``g`` gives a core C₂ in which the
  registers ``v`` under ``g`` become one register ``w_g``.  Forward
  moves are exact, so ``h(u, v) = (u, g(v))`` maps C's reset state to
  C₂'s and commutes with the next-state maps;
* every next-state function of C factors through ``h``: register
  ``r``'s D input is C₂'s node of the same name, except that a D input
  that is itself a wave gate ``g'`` is C₂'s register ``w_g'``;
* hence ``Reach≤t = {init} ∪ G(Reach₂≤t-1 × I)`` — one image per BFS
  layer of C₂, and the layer count (``iterations``) comes out exactly.

C₂ is lifted from its own core in turn (a depth-k backward retiming
unwinds in at most k waves) until no wave shrinks the register count; that last
core, which is every original circuit, runs the frontier fixpoint
directly.  Each circuit computes its set once: :func:`reachable_states`
memoizes one compacted :class:`ReachableStates` per live circuit,
shared by lint, the search classifiers and Tables 6-8.

An explicit breadth-first traversal over concrete states
(:func:`explicit_valid_states`) serves as the cross-check oracle in the
tests (it enumerates inputs, so it is only usable for small circuits).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import ONE, X
from ..circuit.memo import CircuitMemo
from ..circuit.netlist import Circuit
from ..errors import AnalysisError
from ..logic.bdd import BddManager
from ..logic.bddcircuit import node_functions
from ..retime.atomic import can_move_forward, move_forward
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

    Construction computes the whole set (lifted through the circuit's
    cores, see the module docstring), then copies the reachable BDD
    into a fresh manager over the state variables alone and drops the
    working BDDs (next-state functions, core layers, image
    intermediates, operation caches).  What is kept is the reachable
    set's own cone — a few hundred nodes on the Table 3 pairs — plus its
    count and iteration count.  ROBDDs are canonical, so every query
    answers exactly as it would on the full manager.
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
        chain = [circuit]
        waves: List[Dict[str, str]] = []
        while True:
            wave = merge_wave(chain[-1])
            if wave is None:
                break
            chain.append(wave[0])
            waves.append(wave[1])
        # One manager for the whole chain: this circuit's registers lead
        # in declaration order, each core's merged registers follow.  A
        # core register may reuse the name of one an outer wave removed;
        # images read the core's names and write the outer circuit's,
        # so the two never meet in one function and can share a variable.
        order = dict.fromkeys(name for c in chain for name in c.dff_names())
        full = BddManager(list(order) + list(circuit.inputs))
        layers: Optional[List[int]] = None
        for level in reversed(range(len(chain))):
            if level < len(waves):
                core, merged = chain[level + 1], waves[level]
            else:
                core, merged = chain[level], {}
            functions = _next_state_functions(chain[level], core, merged, full)
            layers, reached = _bfs_layers(chain[level], full, functions, layers)
        self._iterations = len(layers)
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


def merge_wave(circuit: Circuit) -> Optional[Tuple[Circuit, Dict[str, str]]]:
    """Forward-move every wave gate of ``circuit`` (see the module
    docstring) on a copy.

    Returns the core and a map from each wave gate to the register it
    now drives, or None when the wave would not shrink the register
    count (a single-fanin wave gate trades one register for one).
    """
    wave = [
        node
        for node in circuit.gates()
        if len(set(node.fanin)) == len(node.fanin)
        and can_move_forward(circuit, node.name)
        and all(
            circuit.fanout_of(register) == (node.name,)
            and not circuit.is_output(register)
            for register in node.fanin
        )
    ]
    if all(len(node.fanin) == 1 for node in wave):
        return None
    core = circuit.copy()
    merged = {
        node.name: move_forward(core, node.name).added_dffs[0] for node in wave
    }
    return core, merged


def _next_state_functions(
    circuit: Circuit, core: Circuit, merged: Dict[str, str], manager: BddManager
) -> List[int]:
    """``circuit``'s next-state functions over its core's variables (the
    core is ``circuit`` itself, with nothing merged, at the last level).

    A register's D input keeps its name in the core, except a wave gate:
    its value one cycle on is the core register it drives, not the
    core's gate of that name (which computes the gate a cycle ahead).
    """
    core_fn = node_functions(core, manager)
    return [
        manager.var(merged[d]) if d in merged else core_fn[d]
        for d in (dff.fanin[0] for dff in circuit.dffs())
    ]


def _bfs_layers(
    circuit: Circuit,
    manager: BddManager,
    functions: List[int],
    core_layers: Optional[List[int]] = None,
) -> Tuple[List[int], int]:
    """Breadth-first layers of ``circuit``'s reachable set, and the set.

    Layer 0 is the reset state and layer t+1 what the image of the t-th
    care set adds: the last layer when ``functions`` are the circuit's
    own next-state functions, or the core's t-th layer when they are
    lifted from a core.  The layer count is the fixpoint's image count.
    """
    reached = manager.cube(
        {dff.name: int(dff.init == ONE) for dff in circuit.dffs()}
    )
    layers = [reached]
    state_vars = circuit.dff_names()
    while True:
        if core_layers is None:
            care = layers[-1]
        elif len(layers) <= len(core_layers):
            care = core_layers[len(layers) - 1]
        else:
            break
        image = manager.range_of(functions, state_vars, care)
        # The next image rarely meets this one's intermediates; on a
        # 64-register rung their cache entries run into the millions.
        manager.clear_caches()
        new = manager.and_(image, manager.not_(reached))
        if new == manager.FALSE:
            break
        layers.append(new)
        reached = manager.or_(reached, new)
    return layers, reached


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
