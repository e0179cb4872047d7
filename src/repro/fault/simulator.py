"""Lane-parallel sequential stuck-at fault simulation (PROOFS substitute).

One arbitrary-width Python int per signal carries every machine of a
call through the circuit at once.  The word is cut into blocks of
``F + 1`` lanes, one block per test sequence: the block's lowest lane
is that sequence's fault-free machine, the other ``F`` lanes its faulty
machines, each with its own stuck-at override.  A fault is detected
when its lane differs from its block's good lane at any primary output
in any cycle.  Each sequence starts from the circuit's reset state
(every test the ATPG engines emit is a from-reset sequence, per the
paper's explicit-reset / power-up-reset setup).

A pass (:meth:`~repro.sim.parallel.BoundStepper.run_lanes`) records
each lane's *first detection step* and each sequence's good-state
trajectory; every answer and every counter is a pure function of those
steps.  Python's bitwise ops cost nearly the same at 64 and 1,000 bits,
so one wide pass replaces many 64-bit ones; :data:`LANE_BOUND` caps the
lanes per pass.  Wider calls chunk their sequences in order (dropping
detected faults between chunks), and a fault list too wide for one
block is split across passes.

Counters are charged as if each sequence ran on its own against the
surviving faults in 63-wide groups (bit 0 of a 64-bit word reserved
for the good machine), each group stopping once all its faults are
caught: ``sim.events`` counts machines × steps, ``sim.pattern_batches``
steps and ``sim.words_packed`` steps × (#PI + #DFF).  The schedule is
fixed, so the counters do not depend on how lanes are packed.

Besides coverage, the simulator records the set of fully-specified
machine states the *good* machine traverses, which is exactly the
"#states trav by orig test set" instrumentation of the paper's Table 8.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .._util import chunked
from ..circuit.gates import ONE, X, ZERO
from ..circuit.netlist import Circuit
from ..errors import FaultError
from ..sim.parallel import WORD_BITS, ParallelSimulator
from .collapse import collapse_faults
from .model import Fault

TestSequence = Sequence[Sequence[int]]  # vectors, each of width #PI

MAX_GROUP_WIDTH = WORD_BITS - 1  # bit 0 is reserved for the good machine

#: Lanes per pass.  A 792-gate kernel costs 217 µs per call at 64 bits,
#: 329 at 1024, 415 at 2048 and 759 at 4096: per lane, cost stops
#: falling near 2048, while wider passes carry more dropped faults.
LANE_BOUND = 2048


@dataclasses.dataclass
class FaultSimReport:
    """Outcome of fault-simulating a test set."""

    detected: Dict[Fault, int]  # fault -> index of detecting sequence
    undetected: List[Fault]
    vectors_simulated: int
    states_traversed: Set[Tuple[int, ...]]  # good-machine states visited

    @property
    def num_detected(self) -> int:
        return len(self.detected)

    def coverage_percent(self) -> float:
        total = len(self.detected) + len(self.undetected)
        if total == 0:
            return 100.0
        return 100.0 * len(self.detected) / total


class LaneRecord:
    """One sequence's outcome in a lane-parallel pass.

    ``first_steps`` maps each fault the sequence detects (among the
    faults of its pass) to the 0-based step of the first detection.
    The good machine's states are read from the pass's raw state words
    on demand; a pass that stopped early holds every step that any
    replay of this record charges.
    """

    __slots__ = ("sequence", "first_steps", "_words", "_lane", "_states")

    def __init__(
        self,
        sequence: TestSequence,
        first_steps: Dict[Fault, int],
        initial_state: Tuple[int, ...],
        words: List[List[int]],
        lane: int,
    ):
        self.sequence = sequence
        self.first_steps = first_steps
        self._words = words
        self._lane = lane
        self._states: List[Tuple[int, ...]] = [initial_state]

    def good_states(self, steps: int) -> List[Tuple[int, ...]]:
        """The reset state and the good states after the first
        ``steps`` vectors."""
        states = self._states
        lane = self._lane
        for state in self._words[len(states) - 1 : steps]:
            states.append(tuple((word >> lane) & 1 for word in state))
        return states[: steps + 1]


class FaultSimulator:
    """Reusable fault simulator bound to one circuit.

    Effort is counted in plain ints: ``events`` (machine-steps, one
    simulated machine through one vector), ``faults_dropped`` (per-pass
    fault drops) and ``sequences`` (sequences simulated);
    :meth:`counters` reports them with the parallel simulator's word
    effort under their ``sim.*`` names.  ``backend`` is forwarded to
    the underlying :class:`~repro.sim.parallel.ParallelSimulator`.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[Fault]] = None,
        backend: str = "compiled",
    ):
        if any(dff.init == X for dff in circuit.dffs()):
            raise FaultError(
                f"circuit {circuit.name!r} has DFFs with unknown initial "
                "values; two-valued fault simulation needs a reset state"
            )
        self.circuit = circuit
        self._parallel = ParallelSimulator(circuit, backend=backend)
        self.events = 0
        self.faults_dropped = 0
        self.sequences = 0
        if faults is None:
            faults = collapse_faults(circuit).representatives
        self.faults: List[Fault] = list(faults)
        self._initial_state = tuple(
            ONE if dff.init == ONE else ZERO for dff in circuit.dffs()
        )
        # Bound steppers for one sequence against at most one fault,
        # keyed by the canonical (mask, overrides) pair.  HITEC
        # validates every candidate sequence with a single-fault
        # :meth:`detects` call; rebinding the override program each
        # time re-derived the same keep/force arrays, so the compiled
        # kernel path is reused here.  Binding increments no counters,
        # so caching cannot drift any deterministic counter; the cache
        # is bounded by the fault universe (one entry per distinct
        # single fault, plus the fault-free stepper).
        self._single_steppers: Dict[
            Tuple[int, Tuple[Tuple[int, Tuple[int, int]], ...]], object
        ] = {}

    # -- public API -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The simulator's effort under its ``sim.*`` names."""
        counters = {
            "sim.events": self.events,
            "sim.faults_dropped": self.faults_dropped,
            "sim.sequences": self.sequences,
        }
        counters.update(self._parallel.counters())
        return counters

    def run(
        self,
        sequences: Sequence[TestSequence],
        faults: Optional[Sequence[Fault]] = None,
        drop: bool = True,
    ) -> FaultSimReport:
        """Fault-simulate ``sequences`` (each applied from reset).

        With ``drop=True`` (the default, matching every classical flow)
        faults already detected by an earlier sequence are not simulated
        again.  With ``drop=False`` every sequence sees every fault, a
        fault keeps its first-detection position in ``detected`` but
        maps to the *last* sequence that detects it, and ``undetected``
        is the whole fault list.

        ``states_traversed`` follows the charged schedule, not the full
        trajectory: a sequence contributes its good states only up to
        the step where its longest 63-wide group stopped (every fault
        of a group caught ends that group's run).  It feeds
        ``atpg.states_traversed`` and Tables 6/8; :meth:`good_trace_states`
        returns whole trajectories.
        """
        remaining = list(self.faults if faults is None else faults)
        sequences = _checked(sequences)
        detected: Dict[Fault, int] = {}
        states: Set[Tuple[int, ...]] = set()
        vectors = 0
        index = 0
        while index < len(sequences):
            if drop:
                # One pass's worth of sequences, so later passes carry
                # only the faults earlier ones left.
                chunk = sequences[
                    index : index + _sequences_per_pass(len(remaining))
                ]
            else:
                chunk = sequences[index:]
            for record in self._records(chunk, remaining):
                report = self.replay(record, remaining, drop)
                vectors += report.vectors_simulated
                states |= report.states_traversed
                # Insert in fault-list order, not set order: callers
                # feed report.detected back into the simulator (e.g.
                # trimming), so hash-dependent ordering would leak into
                # batch composition.
                for fault in report.detected:
                    detected[fault] = index
                remaining = report.undetected
                index += 1
        return FaultSimReport(
            detected=detected,
            undetected=remaining,
            vectors_simulated=vectors,
            states_traversed=states,
        )

    def simulate_batch(
        self, sequences: Sequence[TestSequence], faults: Sequence[Fault]
    ) -> List[LaneRecord]:
        """Simulate every sequence against every fault, without drop,
        charging nothing: :meth:`replay` reads each record later and
        charges it then, so a record never replayed costs no counter."""
        return self._records(_checked(sequences), list(faults))

    def replay(
        self,
        record: LaneRecord,
        faults: Sequence[Fault],
        drop: bool = True,
        length: Optional[int] = None,
    ) -> FaultSimReport:
        """What ``run([record.sequence[:length]], faults, drop)`` returns,
        read from ``record`` and charged to every counter exactly as
        that call would be.  ``faults`` must be among those the record's
        pass simulated; a prefix of length L detects a fault iff its
        first detection step is below L."""
        if length is None:
            length = len(record.sequence)
        steps = [record.first_steps.get(fault, length) for fault in faults]
        steps = [step if step < length else None for step in steps]
        longest = self._charge(length, steps)
        self.sequences += 1
        detected = {
            fault: 0 for fault, step in zip(faults, steps) if step is not None
        }
        if drop:
            undetected = [fault for fault in faults if fault not in detected]
            self.faults_dropped += len(faults) - len(undetected)
        else:
            undetected = list(faults)
        return FaultSimReport(
            detected=detected,
            undetected=undetected,
            vectors_simulated=length,
            states_traversed=set(record.good_states(longest)),
        )

    def run_analyzed(
        self,
        sequences: Sequence[TestSequence],
        analysis,
        drop: bool = True,
    ) -> FaultSimReport:
        """Fault-simulate via a :class:`~repro.fault.analysis.FaultAnalysis`.

        Simulates the analyzer's reduced target list, then separately
        simulates the dominance-dropped class representatives (their
        detection cannot be inferred from the kept witnesses — see
        :mod:`repro.fault.analysis.dominance`), and expands both over
        the full fault universe.  Both passes are charged to the
        counters like any :meth:`run`.  Untestable classes are reported
        undetected (they are, provably).
        """
        rep_report = self.run(
            sequences, faults=analysis.representatives, drop=drop
        )
        detected_by_rep = dict(rep_report.detected)
        dropped = [
            rep
            for rep in analysis.equiv_representatives
            if rep in analysis.dominated
        ]
        if dropped and sequences:
            dropped_report = self.run(sequences, faults=dropped, drop=drop)
            detected_by_rep.update(dropped_report.detected)
        detected, undetected = analysis.expand_detected(detected_by_rep)
        return FaultSimReport(
            detected=detected,
            undetected=undetected,
            vectors_simulated=rep_report.vectors_simulated,
            states_traversed=rep_report.states_traversed,
        )

    def detects(self, sequence: TestSequence, fault: Fault) -> bool:
        """Serial convenience: does this one sequence detect this fault?

        Runs on the compiled kernel path like every other call; the
        single-fault bound stepper is cached, so HITEC validating many
        candidate sequences against one fault binds the override
        program once instead of per call.
        """
        (record,) = self._records(_checked([sequence]), [fault])
        step = record.first_steps.get(fault)
        self._charge(len(sequence), [step])
        return step is not None

    def good_trace_states(
        self, sequences: Sequence[TestSequence]
    ) -> Set[Tuple[int, ...]]:
        """States the fault-free machine traverses over the test set:
        the reset state and the state after every vector."""
        states: Set[Tuple[int, ...]] = set()
        steps = 0
        for record in self._records(_checked(sequences), [], full=True):
            length = len(record.sequence)
            states.update(record.good_states(length))
            steps += length
        self.events += steps
        self._parallel.charge(steps)
        return states

    # -- internals ------------------------------------------------------------

    def _charge(self, length: int, steps: Sequence[Optional[int]]) -> int:
        """Charge one sequence of ``length`` vectors against faults with
        these first detection steps (``None``: undetected) as 63-wide
        groups, each stopping once all its faults are caught; an empty
        list runs one good-machine group for one step.  Returns the
        longest group's step count."""
        groups = list(chunked(steps, MAX_GROUP_WIDTH)) or [[]]
        longest = 0
        total = 0
        for group in groups:
            if None in group:
                run = length
            else:
                run = min(length, 1 + max(group, default=0))
            self.events += (len(group) + 1) * run
            total += run
            longest = max(longest, run)
        self._parallel.charge(total)
        return longest

    def _records(
        self,
        sequences: Sequence[TestSequence],
        faults: List[Fault],
        full: bool = False,
    ) -> List[LaneRecord]:
        """Lane-parallel passes over ``sequences`` × ``faults`` under
        :data:`LANE_BOUND`: sequences in order, as many per pass as fit,
        and a fault list wider than one block split across passes."""
        if len(faults) + 1 <= LANE_BOUND:
            parts = [faults]
        else:
            parts = list(chunked(faults, LANE_BOUND - 1))
        records: List[LaneRecord] = []
        per_pass = _sequences_per_pass(len(faults))
        for chunk in chunked(sequences, per_pass):
            passes = [self._pass(chunk, part, full) for part in parts]
            for position, sequence in enumerate(chunk):
                first: Dict[Fault, int] = {}
                for found, _, _ in passes:
                    first.update(found[position])
                # Every part ran each sequence at least as far as any
                # replay charges it; the longest run covers them all.
                _, words, block = max(passes, key=lambda item: len(item[1]))
                records.append(
                    LaneRecord(
                        sequence,
                        first,
                        self._initial_state,
                        words,
                        position * block,
                    )
                )
        return records

    def _pass(
        self,
        chunk: Sequence[TestSequence],
        faults: List[Fault],
        full: bool,
    ) -> Tuple[List[Dict[Fault, int]], List[List[int]], int]:
        """One lane pass: ``chunk`` sequences × (1 good + ``faults``)
        machines.  Returns per-sequence first detection steps, the raw
        state words per step and the block width."""
        sim = self._parallel
        block = len(faults) + 1
        mask = (1 << (block * len(chunk))) - 1
        goods = mask // ((1 << block) - 1)  # the lowest lane of each block
        overrides: Dict[int, Tuple[int, int]] = {}
        for position, fault in enumerate(faults, start=1):
            slot = sim.node_index(fault.node)
            affected, forced = overrides.get(slot, (0, 0))
            lanes = goods << position
            affected |= lanes
            if fault.stuck_at == ONE:
                forced |= lanes
            overrides[slot] = (affected, forced)
        if len(chunk) == 1 and len(faults) <= 1:
            # The detects() validation path binds the same single-fault
            # override program over and over; reuse the compiled stepper.
            cache_key = (mask, tuple(sorted(overrides.items())))
            stepper = self._single_steppers.get(cache_key)
            if stepper is None:
                stepper = sim.bind_overrides(overrides, mask)
                self._single_steppers[cache_key] = stepper
        else:
            stepper = sim.bind_overrides(overrides, mask)

        num_pis = len(self.circuit.inputs)
        block_ones = (1 << block) - 1
        ends: Dict[int, int] = {}
        pi_steps: List[List[int]] = []
        for position, sequence in enumerate(chunk):
            lanes = block_ones << (position * block)
            ends[len(sequence)] = ends.get(len(sequence), 0) | (
                lanes ^ (1 << (position * block))
            )
            for step, vector in enumerate(sequence):
                if step == len(pi_steps):
                    pi_steps.append([0] * num_pis)
                words = pi_steps[step]
                for pi, bit in enumerate(vector):
                    if bit:
                        words[pi] |= lanes
        state_words = [
            mask if bit == ONE else 0 for bit in self._initial_state
        ]
        first, words = stepper.run_lanes(
            pi_steps, state_words, block, ends, until_caught=not full
        )
        found: List[Dict[Fault, int]] = [{} for _ in chunk]
        for lane, step in first.items():
            position, offset = divmod(lane, block)
            found[position][faults[offset - 1]] = step
        return found, words, block


def _sequences_per_pass(num_faults: int) -> int:
    return max(1, LANE_BOUND // (num_faults + 1))


def _checked(sequences: Sequence[TestSequence]) -> Sequence[TestSequence]:
    for sequence in sequences:
        for vector in sequence:
            for bit in vector:
                if bit not in (ZERO, ONE):
                    raise FaultError(
                        "test vectors must be fully specified 0/1 values"
                    )
    return sequences
