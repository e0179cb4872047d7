"""Iterative-array (time-frame) model for structural sequential ATPG.

The classical model ([15] in the paper): a sequential circuit is
unrolled into identical combinational frames, frame ``f``'s register
outputs fed by frame ``f-1``'s register D-inputs.  The single stuck-at
fault is present in *every* frame (a permanent defect).

:class:`UnrolledModel` re-evaluates the window in five-valued
D-calculus on demand.  Decision variables are the primary inputs of
every frame and the frame-0 state (the machine state the ATPG will
later have to justify); everything else is derived by simulation.

Evaluation runs one generated straight-line kernel per circuit,
compiled from the shared :mod:`repro.sim.compile` plan and cached on
its :class:`~repro.sim.compile.CompiledProgram`, so every model of a
circuit shares it:

* **Encoding.**  Each node holds a 4-bit code of two rail pairs:
  good-circuit 0/1 (bits 1, 2) and faulty-circuit 0/1 (bits 4, 8).
  ZERO=5, ONE=10, X=0, D=6, DBAR=9.  AND/NAND compute
  ``((a|b|...)&5) | (a&b&...&10)``, OR/NOR the dual, XOR/XNOR reduce
  pairwise through a 16x16 table exact per rail.
* **Per-slot output tables.**  Every gate line is ``V[o] = T[o][expr]``
  with a 16-entry table per slot.  The table collapses codes that mix a
  known with an unknown rail pair (good=1, faulty=X, ...) to X — at
  *every* gate output, exactly as :func:`~repro.circuit.gates.five_join`
  does — and inverts for inverting gates.  The stuck-at fault replaces
  only its site's table (good rails pass, faulty rails forced), so a
  new fault never recompiles; a PI or DFF-output site applies its
  table when the source is loaded.

The search reads the codes themselves
(:meth:`UnrolledModel.simulate_codes`): PODEM's goal, objective,
backtrace, D-frontier and X-path checks test a good rail as
``code & 3`` (0 = X, 1 = 0, 2 = 1) and a fault effect as ``code`` 6 or
9.  Only :meth:`UnrolledModel.simulate` decodes, for callers that want
the five-valued literals of :mod:`repro.circuit.gates`, whose
:func:`~repro.circuit.gates.eval_gate5` stays the definitional oracle.

:func:`run_frames` is the one frame loader: the model's window and
HITEC's trace memory (the fault-free stepping of every emitted test,
where five-valued evaluation is exact ternary) both run through it.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..circuit.gates import ONE, ZERO, GateType
from ..circuit.netlist import Circuit
from ..errors import AtpgError
from ..fault.model import Fault
from ..sim.compile import (
    FIVE_CODE,
    FIVE_DECODE,
    CompiledProgram,
    WordOp,
    compiled_program_cached,
    five_stuck_table,
)


def run_frames(
    program: CompiledProgram,
    tables: Sequence[Sequence[int]],
    state: Sequence[int],
    rows: Iterable[Sequence[int]],
    fault_slot: int = -1,
) -> Iterator[List[int]]:
    """Five-valued evaluation of consecutive frames.

    ``state`` holds frame 0's code per register, each of ``rows`` one
    frame's code per primary input; every later frame's registers take
    the previous frame's D-input codes.  ``fault_slot`` names a source
    slot whose (stuck) table applies when the sources are loaded.
    Yields one fresh code array per frame.
    """
    kernel = program.five_valued_kernel
    num_slots = program.num_slots
    input_slots = program.input_slots
    dff_out_slots = program.dff_out_slots
    dff_d_slots = program.dff_d_slots
    for row in rows:
        codes = [0] * num_slots
        for slot, code in zip(dff_out_slots, state):
            codes[slot] = code
        for slot, code in zip(input_slots, row):
            codes[slot] = code
        if fault_slot >= 0:
            codes[fault_slot] = tables[fault_slot][codes[fault_slot]]
        kernel(codes, tables)
        yield codes
        state = [codes[slot] for slot in dff_d_slots]


@dataclasses.dataclass(frozen=True)
class Variable:
    """One decision variable: a PI of some frame, or a frame-0 state bit."""

    kind: str  # "pi" | "state"
    frame: int  # always 0 for state variables
    position: int  # PI index or DFF index


class UnrolledModel:
    """Five-valued multi-frame evaluation engine for one fault.

    All value arrays are indexed by the compiled topological order (the
    circuit's :class:`~repro.sim.compile.CompiledProgram` slots); use
    :meth:`index_of` to translate node names.
    """

    def __init__(
        self,
        circuit: Circuit,
        fault: Optional[Fault],
        max_frames: int,
    ):
        program = compiled_program_cached(circuit)
        self.circuit = circuit
        self.fault = fault
        self.max_frames = max_frames
        self._program = program
        if fault is not None and fault.node not in program.index:
            raise AtpgError(f"fault site {fault.node!r} not in circuit")

        # Slot-indexed structure for the search: source positions,
        # fanin in netlist order, fanout in netlist reader order.
        # Fanin is per frame: a register's D input belongs to the
        # previous frame, so sources have none.
        self.pi_position: Dict[int, int] = {
            slot: position for position, slot in enumerate(program.input_slots)
        }
        self.dff_position: Dict[int, int] = {
            slot: position
            for position, slot in enumerate(program.dff_out_slots)
        }
        self.po_slots: FrozenSet[int] = frozenset(program.output_slots)
        fanin: List[Tuple[int, ...]] = [()] * program.num_slots
        for _, out_slot, in_slots in program.plan:
            fanin[out_slot] = in_slots
        self._fanin: Tuple[Tuple[int, ...], ...] = tuple(fanin)
        fanouts = circuit.fanouts()
        self.fanout_slots: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(program.index[reader] for reader in fanouts[name])
            for name in program.order
        )
        self._gates = tuple(circuit.node(name).gate for name in program.order)
        # The D-frontier's candidates: the gate readers of each slot (a
        # register output is the next frame's source, never a member).
        self.gate_fanout_slots: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(r for r in readers if r not in self.dff_position)
            for readers in self.fanout_slots
        )

        # The kernel's output tables: the circuit's shared fault-free
        # tables, with the fault site's table swapped for a stuck one.
        self._tables: Sequence[Tuple[int, ...]] = program.five_valued_tables
        self._source_fault_slot = -1
        if fault is not None:
            slot = program.index[fault.node]
            self._tables = list(self._tables)
            self._tables[slot] = five_stuck_table(
                self._tables[slot], fault.stuck_at
            )
            if slot in program.source_slots:
                self._source_fault_slot = slot

        # Decision-variable assignments (ternary 0/1; absent = X).
        self.pi_assignment: Dict[Tuple[int, int], int] = {}
        self.state_assignment: Dict[int, int] = {}
        self.num_frames = 1

        # Static observability distances for objective heuristics:
        # gate-count distance to the nearest PO, and to the nearest
        # register D-input (a path into the next frame).
        self.dist_po = self._reverse_distance(self.po_slots)
        self.dist_dff = self._reverse_distance(frozenset(program.dff_d_slots))

    # -- compiled lookups -------------------------------------------------

    @property
    def num_pis(self) -> int:
        return len(self._program.input_slots)

    @property
    def num_dffs(self) -> int:
        return len(self._program.dff_out_slots)

    @property
    def num_nodes(self) -> int:
        return self._program.num_slots

    @property
    def plan(self) -> Tuple[WordOp, ...]:
        """The circuit's ``(opcode, out_slot, in_slots)`` gate plan."""
        return self._program.plan

    def index_of(self, name: str) -> int:
        return self._program.index[name]

    def po_indices(self) -> Sequence[int]:
        return self._program.output_slots

    def dff_out_indices(self) -> Sequence[int]:
        return self._program.dff_out_slots

    def dff_d_indices(self) -> Sequence[int]:
        return self._program.dff_d_slots

    def node_fanin(self, index: int) -> Tuple[int, ...]:
        return self._fanin[index]

    def node_gate(self, index: int) -> Optional[GateType]:
        return self._gates[index]

    def _reverse_distance(self, targets: FrozenSet[int]) -> List[int]:
        """Min gate-count distance from each node to any target node."""
        INF = 10 ** 9
        dist = [INF] * self.num_nodes
        worklist = []
        for index in targets:
            dist[index] = 0
            worklist.append(index)
        # Breadth-first over the reversed combinational graph.
        while worklist:
            next_list = []
            for index in worklist:
                for fanin_index in self._fanin[index]:
                    if dist[fanin_index] > dist[index] + 1:
                        dist[fanin_index] = dist[index] + 1
                        next_list.append(fanin_index)
            worklist = next_list
        return dist

    # -- assignment management ----------------------------------------------

    def assign(self, variable: Variable, value: int) -> None:
        if value not in (ZERO, ONE):
            raise AtpgError("decision values must be 0 or 1")
        if variable.kind == "pi":
            self.pi_assignment[(variable.frame, variable.position)] = value
        else:
            self.state_assignment[variable.position] = value

    def unassign(self, variable: Variable) -> None:
        if variable.kind == "pi":
            self.pi_assignment.pop((variable.frame, variable.position), None)
        else:
            self.state_assignment.pop(variable.position, None)

    def value_of(self, variable: Variable) -> Optional[int]:
        if variable.kind == "pi":
            return self.pi_assignment.get((variable.frame, variable.position))
        return self.state_assignment.get(variable.position)

    def state_cube(self) -> Dict[int, int]:
        """The frame-0 state requirements accumulated by the search."""
        return dict(self.state_assignment)

    # -- simulation ----------------------------------------------------------

    def simulate_codes(self) -> List[List[int]]:
        """Evaluate all ``num_frames`` frames; returns the 4-bit code
        arrays (``codes[frame][node_index]``) the search reads."""
        state = [0] * len(self._program.dff_out_slots)
        for position, value in self.state_assignment.items():
            state[position] = FIVE_CODE[value]
        num_frames = self.num_frames
        num_pis = len(self._program.input_slots)
        rows = [[0] * num_pis for _ in range(num_frames)]
        for (frame, position), value in self.pi_assignment.items():
            if frame < num_frames:
                rows[frame][position] = FIVE_CODE[value]
        return list(
            run_frames(
                self._program,
                self._tables,
                state,
                rows,
                self._source_fault_slot,
            )
        )

    def simulate(self) -> List[List[int]]:
        """Evaluate all ``num_frames`` frames; returns five-valued value
        arrays (``values[frame][node_index]``)."""
        decode = FIVE_DECODE.__getitem__
        return [list(map(decode, codes)) for codes in self.simulate_codes()]

    # -- window control ------------------------------------------------------

    def set_frames(self, count: int) -> None:
        if count < 1 or count > self.max_frames:
            raise AtpgError(
                f"frame count {count} outside [1, {self.max_frames}]"
            )
        self.num_frames = count
        # Drop PI assignments beyond the window.
        for key in [k for k in self.pi_assignment if k[0] >= count]:
            del self.pi_assignment[key]

    def reset_assignments(self) -> None:
        self.pi_assignment.clear()
        self.state_assignment.clear()
