"""Microbenchmarks: interpreted vs compiled simulation kernels.

Unlike the bench_* table regenerations these are true microbenchmarks —
the same fault-simulation workload is timed on both simulation backends
for a few Table-2 circuits, and the same five-valued time-frame
evaluation on the interpreted ``eval_gate5`` loop and the compiled
kernel, HITEC's trace-memory stepping on ``TernarySimulator`` and the
compiled kernel, and one simulation-based ATPG round on the group-loop
oracle and the lane-parallel pass, so each kernel speedup is visible
in isolation from engine search.  Results persist into
``benchmarks/baselines/pytest-bench.json`` (advisory, never gates).
"""

import pytest

from repro._util import make_rng
from repro.atpg import UnrolledModel, Variable
from repro.atpg.frames import run_frames
from repro.atpg.simbased import SimBasedEngine
from repro.circuit import ZERO
from repro.fault import Fault, FaultSimulator
from repro.harness.suite import build_pair, synthesize_named
from repro.sim import TernarySimulator
from repro.sim.compile import FIVE_CODE, FIVE_DECODE, compiled_program_cached

from tests.atpg.test_frames import reference_frames
from tests.fault.reference import reference_run

# A small spread of Table-2 circuits: the smallest, a mid-size FSM and
# one of the larger s-series synthesis results.
CIRCUITS = ("dk16.ji.sd", "s510.jc.sr", "s820.jc.sr")
BACKENDS = ("interpreted", "compiled")


def _workload(circuit, seed=29, num_sequences=8, length=24):
    rng = make_rng(seed)
    return [
        [
            [rng.randrange(2) for _ in circuit.inputs]
            for _ in range(length)
        ]
        for _ in range(num_sequences)
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", CIRCUITS)
def test_fault_sim_kernels(benchmark, name, backend):
    circuit = synthesize_named(name).circuit
    sequences = _workload(circuit)
    simulator = FaultSimulator(circuit, backend=backend)
    simulator.run(sequences)  # warm the program/kernel caches

    report = benchmark.pedantic(
        simulator.run, args=(sequences,), rounds=3, iterations=1
    )
    # Backends must agree on the science; the oracle test pins this
    # exhaustively, the bench just refuses to time a wrong kernel.
    reference = FaultSimulator(circuit, backend="interpreted").run(
        sequences
    )
    assert report.detected == reference.detected
    assert report.undetected == reference.undetected


# -- one simulation-based ATPG round -----------------------------------------

ROUND_BACKENDS = ("reference", "lanes")


def _round(backend, simulator, batch, faults):
    """Each sequence's detections against the round's open faults: one
    group-loop run per sequence, or one lane pass for the batch."""
    if backend == "reference":
        return [
            list(reference_run(simulator, [sequence], faults).detected)
            for sequence in batch
        ]
    records = simulator.simulate_batch(batch, faults)
    return [
        list(simulator.replay(record, faults).detected) for record in records
    ]


@pytest.mark.parametrize("backend", ROUND_BACKENDS)
def test_fault_sim_round(benchmark, backend):
    circuit = build_pair("s510.jc.sd").retimed_circuit
    batch = SimBasedEngine(circuit, rng_seed=23)._next_batch([])
    simulator = FaultSimulator(circuit)
    faults = simulator.faults
    detections = benchmark.pedantic(
        _round,
        args=(backend, simulator, batch, faults),
        rounds=3,
        iterations=1,
    )
    other = ROUND_BACKENDS[1 - ROUND_BACKENDS.index(backend)]
    assert detections == _round(other, FaultSimulator(circuit), batch, faults)


# -- five-valued time-frame evaluation (PODEM's implication step) ----------

FRAME_BACKENDS = ("reference", "compiled")


def _assignment_stream(model, seed=41, steps=200):
    """A fixed random walk of window sizes and PI/state assignments, as
    ``(num_frames, pi_assignment, state_assignment)`` snapshots."""
    rng = make_rng(seed)
    snapshots = []
    for _ in range(steps):
        op = rng.randrange(4)
        if op == 0:
            model.set_frames(rng.randint(1, model.max_frames))
        elif op == 1:
            frame = rng.randrange(model.num_frames)
            position = rng.randrange(model.num_pis)
            model.assign(Variable("pi", frame, position), rng.randrange(2))
        elif op == 2:
            position = rng.randrange(model.num_dffs)
            model.assign(Variable("state", 0, position), rng.randrange(2))
        elif model.pi_assignment:
            frame, position = rng.choice(sorted(model.pi_assignment))
            model.unassign(Variable("pi", frame, position))
        snapshots.append(
            (
                model.num_frames,
                dict(model.pi_assignment),
                dict(model.state_assignment),
            )
        )
    return snapshots


def _evaluate_stream(backend, model, snapshots):
    frames = []
    for num_frames, pi_assignment, state_assignment in snapshots:
        if backend == "reference":
            frames.append(
                reference_frames(
                    model.circuit,
                    model.fault,
                    num_frames,
                    pi_assignment,
                    state_assignment,
                )
            )
            continue
        model.set_frames(num_frames)
        model.pi_assignment = dict(pi_assignment)
        model.state_assignment = dict(state_assignment)
        frames.append(model.simulate())
    return frames


@pytest.mark.parametrize("backend", FRAME_BACKENDS)
def test_five_valued_frames(benchmark, backend):
    circuit = build_pair("dk16.ji.sd").retimed_circuit
    gate = min(node.name for node in circuit.gates())
    model = UnrolledModel(circuit, Fault(gate, ZERO), max_frames=4)
    snapshots = _assignment_stream(model)
    frames = benchmark.pedantic(
        _evaluate_stream,
        args=(backend, model, snapshots),
        rounds=3,
        iterations=1,
    )
    other = FRAME_BACKENDS[1 - FRAME_BACKENDS.index(backend)]
    assert frames == _evaluate_stream(other, model, snapshots)


# -- HITEC trace memory (fault-free stepping of emitted tests) -------------

TRACE_BACKENDS = ("ternary", "compiled")


def _trace_states(backend, circuit, sequences):
    """Every state the sequences drive the machine through from reset:
    one ``TernarySimulator.step`` per vector, or the compiled
    five-valued kernel with the fault-free tables."""
    states = []
    if backend == "ternary":
        simulator = TernarySimulator(circuit)
        for sequence in sequences:
            state = simulator.initial_state()
            for vector in sequence:
                _, state = simulator.step(vector, state)
                states.append(state)
        return states
    program = compiled_program_cached(circuit)
    reset = [FIVE_CODE[value] for value in circuit.initial_state()]
    for sequence in sequences:
        rows = ([FIVE_CODE[value] for value in vector] for vector in sequence)
        for codes in run_frames(program, program.five_valued_tables, reset, rows):
            states.append(
                tuple(FIVE_DECODE[codes[slot]] for slot in program.dff_d_slots)
            )
    return states


@pytest.mark.parametrize("backend", TRACE_BACKENDS)
def test_trace_memory_stepping(benchmark, backend):
    circuit = build_pair("dk16.ji.sd").retimed_circuit
    sequences = _workload(circuit, seed=43, num_sequences=20, length=20)
    states = benchmark.pedantic(
        _trace_states,
        args=(backend, circuit, sequences),
        rounds=3,
        iterations=1,
    )
    other = TRACE_BACKENDS[1 - TRACE_BACKENDS.index(backend)]
    assert states == _trace_states(other, circuit, sequences)
