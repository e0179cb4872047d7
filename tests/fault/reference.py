"""The group-loop fault simulator, kept as the lane pass's oracle.

``reference_run`` is the schedule the lane-parallel simulator charges
its counters by, executed literally: each sequence runs on its own
against the surviving faults in 63-wide groups of one 64-bit word (bit
0 the good machine), stepping vector by vector and stopping a group
once all its faults are caught.  It drives the simulator's own
:class:`~repro.sim.parallel.ParallelSimulator` and counters, so every
``sim.*`` counter of a reference run is comparable with a lane run.
"""

from typing import Dict, Set, Tuple

from repro._util import chunked
from repro.circuit.gates import ONE, ZERO
from repro.errors import FaultError
from repro.fault.simulator import MAX_GROUP_WIDTH, FaultSimReport


def reference_run(simulator, sequences, faults=None, drop=True):
    """``simulator.run(sequences, faults, drop)`` by the group loop."""
    remaining = list(simulator.faults if faults is None else faults)
    detected: Dict[object, int] = {}
    states: Set[Tuple[int, ...]] = set()
    vectors = 0
    for index, sequence in enumerate(sequences):
        vectors += len(sequence)
        simulator.sequences += 1
        caught = _simulate_sequence(simulator, sequence, remaining, states)
        for fault in remaining:
            if fault in caught:
                detected[fault] = index
        if drop:
            before = len(remaining)
            remaining = [f for f in remaining if f not in caught]
            simulator.faults_dropped += before - len(remaining)
    return FaultSimReport(
        detected=detected,
        undetected=remaining,
        vectors_simulated=vectors,
        states_traversed=states,
    )


def _simulate_sequence(simulator, sequence, faults, states_out):
    for vector in sequence:
        for bit in vector:
            if bit not in (ZERO, ONE):
                raise FaultError(
                    "test vectors must be fully specified 0/1 values"
                )
    caught: Set[object] = set()
    for group in list(chunked(list(faults), MAX_GROUP_WIDTH)) or [[]]:
        caught |= _simulate_group(simulator, sequence, group, states_out)
    return caught


def _simulate_group(simulator, sequence, group, states_out):
    sim = simulator._parallel
    mask = (1 << (len(group) + 1)) - 1  # bit 0 = good machine
    overrides: Dict[int, Tuple[int, int]] = {}
    for position, fault in enumerate(group, start=1):
        slot = sim.node_index(fault.node)
        affected, forced = overrides.get(slot, (0, 0))
        affected |= 1 << position
        if fault.stuck_at == ONE:
            forced |= 1 << position
        overrides[slot] = (affected, forced)
    stepper = sim.bind_overrides(overrides, mask)
    state = [
        mask if dff.init == ONE else 0 for dff in simulator.circuit.dffs()
    ]
    if states_out is not None:
        states_out.add(tuple(word & 1 for word in state))
    target = mask & ~1
    detected = 0
    steps = 0
    for vector in sequence:
        steps += 1
        pi_words = [mask if bit == ONE else 0 for bit in vector]
        po_words, state = stepper.step(pi_words, state)
        if states_out is not None:
            states_out.add(tuple(word & 1 for word in state))
        for word in po_words:
            detected |= word ^ -(word & 1)
        detected &= mask
        if detected == target:
            break  # every fault in the group already caught
    simulator.events += (len(group) + 1) * steps
    caught: Set[object] = set()
    for position, fault in enumerate(group, start=1):
        if (detected >> position) & 1:
            caught.add(fault)
    return caught


def reference_good_states(simulator, sequences) -> Set[Tuple[int, ...]]:
    """Every good-machine state over ``sequences`` by a plain
    :meth:`~repro.sim.parallel.ParallelSimulator.step` loop."""
    sim = simulator._parallel
    states: Set[Tuple[int, ...]] = set()
    for sequence in sequences:
        state = [
            1 if dff.init == ONE else 0 for dff in simulator.circuit.dffs()
        ]
        states.add(tuple(state))
        for vector in sequence:
            _, state = sim.step(list(vector), state, 1)
            states.add(tuple(state))
    return states

