"""Simulation-based sequential ATPG (the Attest/TDX stand-in).

A different algorithmic family from PODEM-style search, deliberately:
the paper's argument needs independent engines agreeing that retimed
circuits are harder.  This engine never builds time frames; it breeds
test sequences against the fault simulator (the CONTEST [Agrawal et
al.] school, which commercial tools of the era such as Attest's TDX
drew on):

1. **Random phase** — batches of random from-reset sequences; keep any
   sequence that detects new faults.
2. **Hill-climbing phase** — mutate the best recent sequences (bit
   flips, extensions) and keep improvements, until a stall or the
   budget ends the run.

The engine never proves redundancy, so its fault efficiency ≈ fault
coverage — visible in the paper's Attest rows (Table 3), where %FE
equals %FC on most circuits.

Why it degrades on retimed circuits: random/mutated sequences revisit
the tiny valid-state subspace slowly when the encoding is sparse, so
new detections dry up and the stall cutoff fires with faults left
undetected — the same density-of-encoding story through a different
mechanism.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Set, Tuple

from ..circuit.gates import X
from ..circuit.netlist import Circuit
from ..errors import AtpgError
from ..fault.collapse import collapse_faults
from ..fault.model import Fault
from ..fault.simulator import FaultSimulator
from ..obs import Tracer
from ..obs.coverage import ABORT_STALL, ABORT_TIME_BUDGET, PROV_BREEDING
from ..obs.search import SearchObserver, StateClassifier
from .._util import make_rng, random_bits
from .result import (
    AtpgResult,
    Checkpoint,
    EffortBudget,
    FaultBook,
    Stopwatch,
    TestSet,
    WorkClock,
)


@dataclasses.dataclass
class SimBasedOptions:
    """Knobs for the simulation-based engine."""

    batch_size: int = 12  # sequences per round
    sequence_length: int = 40  # vectors per random sequence
    mutation_rate: float = 0.08  # per-bit flip probability
    stall_rounds: int = 6  # rounds without improvement before stopping
    elite_pool: int = 8  # best sequences kept for mutation
    sim_backend: str = "compiled"  # fault-sim substrate (ablation knob)


class SimBasedEngine:
    """Breeds from-reset test sequences against the fault simulator."""

    name = "simbased"

    def __init__(
        self,
        circuit: Circuit,
        budget: Optional[EffortBudget] = None,
        options: Optional[SimBasedOptions] = None,
        rng_seed: int = 23,
        tracer: Optional[Tracer] = None,
    ):
        circuit.check()
        if any(dff.init == X for dff in circuit.dffs()):
            raise AtpgError(
                f"circuit {circuit.name!r} has no reset state; this "
                "study's engines require one (see DESIGN.md)"
            )
        self.circuit = circuit
        self.budget = budget or EffortBudget.paper()
        self.options = options or SimBasedOptions()
        self.tracer = tracer if tracer is not None else Tracer()
        self._rng = make_rng(rng_seed)
        self._simulator = FaultSimulator(
            circuit, backend=self.options.sim_backend
        )
        self._num_pis = len(circuit.inputs)
        # Valid/invalid oracle over the circuit's shared reachable set
        # (verdicts memoized across runs); a fresh per-run observer
        # streams every newly traversed state through it.  For this engine every traversed state is reachable by
        # construction, so its waste fraction is ~0 — the observatory's
        # control group against the structural engines.
        self._classifier = StateClassifier(circuit)

    def run(self, faults: Optional[Sequence[Fault]] = None) -> AtpgResult:
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
        clock,
        tracer: Tracer,
    ) -> AtpgResult:
        test_set = TestSet()
        checkpoints: List[Checkpoint] = []
        states_seen: Set[Tuple[int, ...]] = set()
        observer = SearchObserver(self._classifier)
        watch = Stopwatch(self.budget.total_seconds, clock=clock)
        book = FaultBook(faults, watch, self._simulator, observer)
        open_faults = book.open_faults()
        sim_events_start = self._simulator.events
        elite: List[List[List[int]]] = []
        stall = 0
        rounds = 0

        while (
            open_faults
            and stall < self.options.stall_rounds
            and not watch.expired()
        ):
            rounds += 1
            with tracer.span("atpg.round", index=rounds):
                batch = self._next_batch(elite)
                # One lane pass for the whole batch against the round's
                # open faults; each sequence is then read (and charged)
                # against the faults still open at its turn.
                records = self._simulator.simulate_batch(batch, open_faults)
                improved = False
                for record in records:
                    if watch.expired():
                        break
                    watch.charge(5)  # one sequence through the simulator
                    report = self._simulator.replay(record, open_faults)
                    # Stream newly reached states in sorted order (set
                    # iteration order is not deterministic across
                    # processes; the sort keeps the tallies jobs-
                    # invariant).
                    for state in sorted(
                        report.states_traversed - states_seen
                    ):
                        observer.observe_state(state)
                    states_seen |= report.states_traversed
                    if report.detected:
                        improved = True
                        trimmed = self._trim(record, list(report.detected))
                        test_set.add(trimmed)
                        # Every detection here is incidental: bred
                        # sequences target no specific fault.
                        for fault in report.detected:
                            book.detected(
                                fault, PROV_BREEDING, len(test_set) - 1
                            )
                        open_faults = book.open_faults()
                        elite.append(trimmed)
                        if len(elite) > self.options.elite_pool:
                            elite.pop(0)
            stall = 0 if improved else stall + 1
            checkpoints.append(book.checkpoint())

        leftover_reason = (
            ABORT_TIME_BUDGET if watch.expired() else ABORT_STALL
        )
        for fault in open_faults:
            book.abort(fault, leftover_reason)
        return AtpgResult(
            circuit_name=self.circuit.name,
            engine=self.name,
            statuses=book.statuses(),
            test_set=test_set,
            cpu_seconds=watch.elapsed(),
            checkpoints=checkpoints,
            states_traversed=states_seen,
            states_examined=set(states_seen),
            sim_events=self._simulator.events - sim_events_start,
            search_counters=observer.counters(),
            fault_records=book.records(),
        )

    # -- sequence generation --------------------------------------------------

    def _next_batch(
        self, elite: List[List[List[int]]]
    ) -> List[List[List[int]]]:
        batch: List[List[List[int]]] = []
        for index in range(self.options.batch_size):
            if elite and index % 2 == 1:
                batch.append(self._mutate(self._rng.choice(elite)))
            else:
                batch.append(self._random_sequence())
        return batch

    def _random_sequence(self) -> List[List[int]]:
        width = self._num_pis
        bits = random_bits(self._rng, width * self.options.sequence_length)
        return [
            list(bits[step * width : (step + 1) * width])
            for step in range(self.options.sequence_length)
        ]

    def _mutate(self, sequence: List[List[int]]) -> List[List[int]]:
        mutated = [list(vector) for vector in sequence]
        for vector in mutated:
            for position in range(self._num_pis):
                if self._rng.random() < self.options.mutation_rate:
                    vector[position] ^= 1
        # Occasionally extend: deeper states need longer sequences.
        if self._rng.random() < 0.3:
            mutated.extend(
                self._random_sequence()[: self.options.sequence_length // 4]
            )
        return mutated

    def _trim(self, record, detected_faults) -> List[List[int]]:
        """Cut the sequence right after its last useful vector (greedy:
        halve from the end while every fault stays detected)."""
        length = len(record.sequence)
        while length > 1:
            candidate = length // 2 + length % 2
            report = self._simulator.replay(
                record, detected_faults, drop=False, length=candidate
            )
            if len(report.detected) != len(detected_faults):
                break
            length = candidate
        return [list(v) for v in record.sequence[:length]]
