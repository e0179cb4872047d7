"""HITEC-style structural sequential ATPG.

For each collapsed fault the engine runs the classical two phases
([4], [11] in the paper):

1. **Forward phase** (:class:`~repro.atpg.podem.FaultPodem`): excite the
   fault in frame 0 with a *free* machine state and propagate a D/D̄ to
   a primary output within a growing time-frame window.
2. **State justification** (:class:`Justifier`): drive the machine from
   the reset state into the excitation state.  Three knowledge sources
   are tried in order, as HITEC did:

   * the reset state itself (cube compatible → empty prefix);
   * the **known-state database** — states the fault-free machine was
     already driven through by previously emitted tests, each with a
     stored input prefix;
   * backward preimage search — one
     :class:`~repro.atpg.podem.JustifyPodem` per step, DFS over state
     cubes, probing one-step-reachability from reset at every level.

   The backward search is where structural ATPG meets the paper's
   *density of encoding*: on retimed circuits most cubes the search
   proposes are invalid (unreachable), and proving that burns budget.

Every candidate test is validated end-to-end with the fault simulator
before any credit is taken (justification runs on the fault-free
machine, so a fault corrupting its own activation prefix is caught here
and the search continues with the next solution).  Detected tests are
fault-simulated against all open faults (fault dropping).

Classification:

* ``detected`` — validated test emitted;
* ``redundant`` — the search space was *exhausted* without budget cuts:
  either no excitation/propagation exists within the maximum window, or
  every excitation state was exhaustively proven unreachable (the
  paper's invalid-SRFs);
* ``aborted`` — some budget (backtracks, window, depth, preimages,
  wall clock) cut the search, mirroring the paper's halted runs.

Redundancy claims are bounded by the frame window and justification
depth; the property tests cross-check them against long random fault
simulation.  Construct with ``learning=True`` for the SEST-style engine
(illegal state cubes cached across faults).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import ONE, X, ZERO
from ..circuit.netlist import Circuit
from ..errors import AtpgError
from ..fault.collapse import collapse_faults
from ..fault.model import Fault
from ..fault.simulator import FaultSimulator
from ..obs import Tracer
from ..obs.coverage import (
    ABORT_FRAME_LIMIT,
    ABORT_TIME_BUDGET,
    PROV_FAULT_DROP,
    PROV_RANDOM_PHASE,
)
from ..obs.search import SearchObserver, StateClassifier
from ..sim.compile import FIVE_CODE, FIVE_DECODE, compiled_program_cached
from .._util import make_rng
from .frames import UnrolledModel, run_frames
from .learning import IllegalStateCache, cube_key
from .podem import FaultPodem, JustifyPodem, SearchMeter
from .result import (
    AtpgResult,
    EffortBudget,
    FaultBook,
    Stopwatch,
    TestSet,
    WorkClock,
)

State = Tuple[int, ...]
Vector = List[int]

# Virtual-clock work charges (deterministic_clock budgets only): one
# backtrack costs 1 unit (charged by SearchMeter); these cover the
# other dominant work items so checkpoint times keep advancing even on
# faults that never backtrack.
_COST_FRAME_WINDOW = 5  # one time-frame window expansion
_COST_SEQUENCE_SIM = 5  # one sequence through the fault simulator


@dataclasses.dataclass
class _FaultOutcome:
    state: str  # detected | redundant | aborted
    sequence: Optional[List[Vector]] = None
    backtracks: int = 0
    frames_expanded: int = 0
    # Which budget cut an aborted search (repro.obs.coverage ABORT_*
    # taxonomy); ``aborted`` stays the rolled-up state in every table.
    abort_reason: Optional[str] = None


class Justifier:
    """State justification with reset probing, a known-state database,
    and backward preimage DFS."""

    def __init__(
        self,
        circuit: Circuit,
        budget: EffortBudget,
        learning: Optional[IllegalStateCache],
        states_seen: Set[State],
        observer: SearchObserver,
        fill_seed: int = 31,
        tracer: Optional[Tracer] = None,
    ):
        self.circuit = circuit
        self.budget = budget
        self.learning = learning
        self.states_seen = states_seen
        self._tracer = tracer if tracer is not None else Tracer()
        # Search-state observatory hook: every cube the DFS examines is
        # streamed here for valid/invalid classification.
        self.observer = observer
        # Fully-specified state cubes the backward search *examined*
        # (visited states are tracked separately via remember_trace —
        # the paper's "#states HITEC trav" counts machine states the
        # test-generation process drove through or targeted).
        self.states_examined: Set[State] = set()
        self._rng = make_rng(fill_seed)
        self._num_pis = len(circuit.inputs)
        self._reset_state = [
            ONE if dff.init == ONE else ZERO for dff in circuit.dffs()
        ]
        # Fault-free states already visited by emitted tests, each with
        # the input prefix (from reset) that reaches it.
        self.known_states: Dict[State, List[Vector]] = {
            tuple(self._reset_state): []
        }
        # One single-frame fault-free model per recursion depth, reused
        # across faults (model compilation is not free).
        self._model_pool: List[UnrolledModel] = []

    # -- knowledge maintenance ------------------------------------------------

    def remember_trace(self, sequence: Sequence[Vector]) -> None:
        """Record every state a validated test drives the machine
        through, with its prefix, for reuse by later justifications.

        The sequence steps through the circuit's compiled five-valued
        kernel with the fault-free tables: with no fault, both rails of
        every code agree, so the evaluation is exact ternary.
        """
        program = compiled_program_cached(self.circuit)
        dff_d_slots = program.dff_d_slots
        frames = run_frames(
            program,
            program.five_valued_tables,
            [FIVE_CODE[value] for value in self.circuit.initial_state()],
            ([FIVE_CODE[value] for value in vector] for vector in sequence),
        )
        for index, codes in enumerate(frames):
            state = tuple(FIVE_DECODE[codes[slot]] for slot in dff_d_slots)
            if X in state:
                # A partially-known state is useless as a justification
                # shortcut (no stored prefix provably reaches it), but
                # silently dropping it under-reports the traversal — the
                # observatory counts every occurrence.
                self.observer.note_partial_state()
                continue
            key = tuple(state)
            if key not in self.known_states:
                self.known_states[key] = [list(v) for v in sequence[: index + 1]]
            self.states_seen.add(key)

    # -- queries ------------------------------------------------------------------

    def _known_prefix(self, cube: Dict[int, int]) -> Optional[List[Vector]]:
        best: Optional[List[Vector]] = None
        for state, prefix in self.known_states.items():
            if all(state[pos] == val for pos, val in cube.items()):
                if best is None or len(prefix) < len(best):
                    best = prefix
        return best

    # -- main entry ------------------------------------------------------------------

    def justify(
        self, cube: Dict[int, int], meter: SearchMeter
    ) -> Tuple[Optional[List[Vector]], bool]:
        """Input vectors driving reset → a state compatible with ``cube``.

        Returns ``(vectors, exhaustive)``; vectors is None on failure and
        ``exhaustive`` tells whether that failure is a *proof* (no budget
        was hit anywhere in the subtree).
        """
        with self._tracer.span("atpg.justify", bits=len(cube)):
            return self._dfs(cube, depth=0, meter=meter, path=[])

    def _dfs(
        self,
        cube: Dict[int, int],
        depth: int,
        meter: SearchMeter,
        path: List[Tuple[Tuple[int, int], ...]],
    ) -> Tuple[Optional[List[Vector]], bool]:
        self._record_state(cube)
        self.observer.observe_cube(cube)
        known = self._known_prefix(cube)
        if known is not None:
            return list(known), True
        if meter.exhausted():
            return None, False
        if depth >= self.budget.max_justify_depth:
            return None, False
        if self.learning is not None and self.learning.is_illegal(cube):
            self.observer.note_learned_prune()
            return None, True
        key = cube_key(cube)
        if key in path:
            return None, True  # ancestor cycle: nothing new on this path

        # One-step probe: is the cube reachable directly from a state we
        # already know how to reach?  (The reset state is always known.)
        probe = self._probe_known_states(cube, meter)
        if probe is not None:
            return probe, True

        model = self._model_for_depth(depth)
        search = JustifyPodem(model, meter, cube)
        exhaustive = True
        solutions_tried = 0
        path.append(key)
        try:
            for solution in search.solutions():
                solutions_tried += 1
                prefix, sub_exhaustive = self._dfs(
                    solution.state_cube, depth + 1, meter, path
                )
                if prefix is not None:
                    return prefix + [self._fill(solution.pi_assignment)], True
                if not sub_exhaustive:
                    exhaustive = False
                if solutions_tried >= self.budget.max_preimages:
                    exhaustive = False
                    break
            if not search.outcome.exhausted:
                exhaustive = False
        finally:
            path.pop()
        if exhaustive and self.learning is not None:
            self.learning.learn(cube)
        return None, exhaustive

    # -- helpers ---------------------------------------------------------------------

    def _probe_known_states(
        self, cube: Dict[int, int], meter: SearchMeter, max_probes: int = 4
    ) -> Optional[List[Vector]]:
        """Try to reach ``cube`` in one step from a known state (shortest
        prefixes first)."""
        candidates = sorted(
            self.known_states.items(), key=lambda item: len(item[1])
        )[:max_probes]
        for state, prefix in candidates:
            if meter.exhausted():
                return None
            model = self._probe_model()
            for position, value in enumerate(state):
                model.state_assignment[position] = value
            search = JustifyPodem(model, meter, cube)
            for solution in search.solutions():
                return prefix + [self._fill(solution.pi_assignment)]
        return None

    def _probe_model(self) -> UnrolledModel:
        model = getattr(self, "_probe_model_cache", None)
        if model is None:
            model = UnrolledModel(self.circuit, fault=None, max_frames=1)
            self._probe_model_cache = model
        model.reset_assignments()
        model.set_frames(1)
        return model

    def _model_for_depth(self, depth: int) -> UnrolledModel:
        while len(self._model_pool) <= depth:
            self._model_pool.append(
                UnrolledModel(self.circuit, fault=None, max_frames=1)
            )
        model = self._model_pool[depth]
        model.reset_assignments()
        model.set_frames(1)
        return model

    def _fill(self, pi_assignment: Dict[Tuple[int, int], int]) -> Vector:
        return [
            pi_assignment.get((0, position), self._rng.randrange(2))
            for position in range(self._num_pis)
        ]

    def _record_state(self, cube: Dict[int, int]) -> None:
        if len(cube) == len(self._reset_state):
            self.states_examined.add(
                tuple(cube[i] for i in range(len(self._reset_state)))
            )


class HitecEngine:
    """The primary structural sequential ATPG of this reproduction."""

    name = "hitec"

    def __init__(
        self,
        circuit: Circuit,
        budget: Optional[EffortBudget] = None,
        learning: bool = False,
        rng_seed: int = 17,
        tracer: Optional[Tracer] = None,
        sim_backend: str = "compiled",
    ):
        circuit.check()
        if any(dff.init == X for dff in circuit.dffs()):
            raise AtpgError(
                f"circuit {circuit.name!r} has no reset state; this "
                "study's engines require one (see DESIGN.md)"
            )
        self.circuit = circuit
        self.budget = budget or EffortBudget.paper()
        if learning:
            self.name = "sest"
        self.tracer = tracer if tracer is not None else Tracer()
        self.learning_cache = IllegalStateCache() if learning else None
        self._rng = make_rng(rng_seed)
        self._simulator = FaultSimulator(circuit, backend=sim_backend)
        self._num_pis = len(circuit.inputs)
        # One valid/invalid oracle per engine instance over the
        # circuit's shared reachable set: every classification verdict
        # is memoized across faults and across runs (the per-run
        # observer only owns the tallies).
        self._classifier = StateClassifier(circuit)

    # -- public API --------------------------------------------------------

    def run(self, faults: Optional[Sequence[Fault]] = None) -> AtpgResult:
        """Generate tests for every fault (collapsed list by default)."""
        if faults is None:
            faults = collapse_faults(self.circuit).representatives
        tracer = self.tracer
        clock = WorkClock() if self.budget.deterministic_clock else None
        tracer.use_clock(clock)
        try:
            with tracer.span(
                "atpg.run", engine=self.name, circuit=self.circuit.name
            ):
                return self._run(faults, clock, tracer)
        finally:
            tracer.use_clock(None)

    def _run(
        self,
        faults: Sequence[Fault],
        clock: Optional[WorkClock],
        tracer: Tracer,
    ) -> AtpgResult:
        test_set = TestSet()
        states_seen: Set[State] = set()
        observer = SearchObserver(self._classifier)
        justifier = Justifier(
            self.circuit,
            self.budget,
            self.learning_cache,
            states_seen,
            observer,
            tracer=tracer,
        )
        total_watch = Stopwatch(self.budget.total_seconds, clock=clock)
        book = FaultBook(faults, total_watch, self._simulator, observer)
        sim_events_start = self._simulator.events

        # Phase 0: random test generation.  Detects the easy faults at
        # fault-simulation cost and seeds the justifier's known-state
        # database with every state the kept sequences drive through.
        with tracer.span("atpg.random_phase"):
            self._random_phase(
                book, test_set, justifier, states_seen, total_watch
            )
        checkpoints = [book.checkpoint()]

        for fault in faults:
            if not book.is_open(fault):
                continue
            if total_watch.expired():
                book.abort(fault, ABORT_TIME_BUDGET)
                continue
            with book.target(fault, tracer) as scope:
                outcome = self._process_fault(fault, justifier, total_watch)
            detected_by = None
            if outcome.state == "detected":
                detected_by = len(test_set)
                test_set.add(outcome.sequence)
                justifier.remember_trace(outcome.sequence)
                # Fault dropping: run the new sequence over open faults.
                total_watch.charge(_COST_SEQUENCE_SIM)
                with tracer.span("sim.fault_drop"):
                    report = self._simulator.run(
                        [outcome.sequence], faults=book.open_faults()
                    )
                states_seen |= report.states_traversed
            # A detecting record closes after the drop pass (its events
            # charge to this fault) and before the faults it dropped.
            scope.close(
                outcome.state,
                outcome.backtracks,
                outcome.frames_expanded,
                abort_reason=outcome.abort_reason,
                detected_by=detected_by,
            )
            if detected_by is not None:
                for dropped in report.detected:
                    book.detected(dropped, PROV_FAULT_DROP, detected_by)
            checkpoints.append(book.checkpoint())

        return AtpgResult(
            circuit_name=self.circuit.name,
            engine=self.name,
            statuses=book.statuses(),
            test_set=test_set,
            cpu_seconds=total_watch.elapsed(),
            checkpoints=checkpoints,
            states_traversed=states_seen,
            states_examined=justifier.states_examined,
            sim_events=self._simulator.events - sim_events_start,
            search_counters=observer.counters(),
            fault_records=book.records(),
        )

    def _random_phase(
        self,
        book: FaultBook,
        test_set: TestSet,
        justifier: Justifier,
        states_seen: Set[State],
        total_watch: Stopwatch,
    ) -> None:
        """Greedy random-sequence selection."""
        open_faults = book.open_faults()
        for _ in range(self.budget.random_sequences):
            if not open_faults:
                break
            total_watch.charge(_COST_SEQUENCE_SIM)
            sequence = [
                [self._rng.randrange(2) for _ in range(self._num_pis)]
                for _ in range(self.budget.random_length)
            ]
            report = self._simulator.run([sequence], faults=open_faults)
            states_seen |= report.states_traversed
            if not report.detected:
                continue
            test_set.add(sequence)
            justifier.remember_trace(sequence)
            for fault in report.detected:
                book.detected(fault, PROV_RANDOM_PHASE, len(test_set) - 1)
            open_faults = [f for f in open_faults if f not in report.detected]

    # -- per-fault search -------------------------------------------------------

    def _process_fault(
        self,
        fault: Fault,
        justifier: Justifier,
        total_watch: Stopwatch,
    ) -> _FaultOutcome:
        meter = SearchMeter(
            self.budget.max_backtracks,
            self.budget.per_fault_seconds,
            total_watch,
        )
        model = UnrolledModel(
            self.circuit, fault, max_frames=self.budget.max_frames
        )
        any_solution = False
        validation_failures = 0
        all_justify_exhaustive = True
        forward_exhausted_at_max = False
        windows_expanded = 0

        def _done(
            state: str, sequence=None, abort_reason=None
        ) -> _FaultOutcome:
            return _FaultOutcome(
                state,
                sequence,
                backtracks=meter.backtracks,
                frames_expanded=windows_expanded,
                abort_reason=abort_reason,
            )

        window = 1
        while window <= self.budget.max_frames:
            model.reset_assignments()
            model.set_frames(window)
            windows_expanded += 1
            total_watch.charge(_COST_FRAME_WINDOW)
            search = FaultPodem(model, meter)
            for solution in search.solutions():
                any_solution = True
                prefix, exhaustive = justifier.justify(
                    solution.state_cube, meter
                )
                if prefix is None:
                    if not exhaustive:
                        all_justify_exhaustive = False
                    continue
                sequence = self._randomize_fill(solution, prefix)
                if self._simulator.detects(sequence, fault):
                    return _done("detected", sequence)
                validation_failures += 1
                if meter.exhausted():
                    break
            if meter.exhausted():
                return _done(
                    "aborted", abort_reason=meter.exhausted_reason()
                )
            if window == self.budget.max_frames:
                forward_exhausted_at_max = search.outcome.exhausted
            window += 1

        if not any_solution and forward_exhausted_at_max:
            # No excitation+propagation exists even with a free machine
            # state: untestable within the window (combinational-style
            # redundancy).
            return _done("redundant")
        if (
            any_solution
            and forward_exhausted_at_max
            and all_justify_exhaustive
            and validation_failures == 0
        ):
            # Every excitation state was exhaustively proven unreachable:
            # the paper's invalid-SRF.
            return _done("redundant")
        # The window loop ran out with the meter still live: the frame
        # limit — not a backtrack or time budget — cut the search.
        return _done("aborted", abort_reason=ABORT_FRAME_LIMIT)

    def _randomize_fill(self, solution, prefix: List[Vector]) -> List[Vector]:
        """Concatenate the justification prefix and the forward-phase
        vectors, filling the forward phase's unassigned PIs
        pseudo-randomly (any fill preserves the values the five-valued
        search certified)."""
        sequence = [list(v) for v in prefix]
        for frame in range(solution.frames_used):
            vector = [
                solution.pi_assignment.get(
                    (frame, position), self._rng.randrange(2)
                )
                for position in range(self._num_pis)
            ]
            sequence.append(vector)
        return sequence
