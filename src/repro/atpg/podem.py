"""PODEM search over the iterative-array model.

Two goal flavors share one decision engine:

* :class:`FaultPodem` — excite the fault in frame 0 and drive a D/D̄ to
  a primary output within the frame window (the HITEC forward phase).
* :class:`JustifyPodem` — make frame-0's next-state lines produce a
  required state cube (one backward step of state justification).

Both enumerate *multiple* solutions: after yielding one, the engine
backtracks and continues, so callers can try alternative excitation
states or preimages when a downstream step fails.  All search effort is
charged to a shared :class:`SearchMeter`, the budget the paper's
aborted-fault accounting hangs on.

The search reads the model's 4-bit codes
(:meth:`~repro.atpg.frames.UnrolledModel.simulate_codes`), never
decoded literals: a node's good rail is ``code & 3`` (0 = X, 1 = 0,
2 = 1), and it carries a fault effect iff its code is D (6) or D̄ (9).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..circuit.gates import D, DBAR, GateType, ONE, X, ZERO
from ..errors import AtpgError
from ..obs.coverage import ABORT_BACKTRACK_LIMIT, ABORT_TIME_BUDGET
from ..sim.compile import FIVE_CODE
from .frames import UnrolledModel, Variable
from .result import Stopwatch

Codes = List[List[int]]  # one code array per frame

#: The good-rail bits (``code & 3``) of a required 0 or 1.
_GOOD_RAIL = (FIVE_CODE[ZERO] & 3, FIVE_CODE[ONE] & 3)
_EFFECT_CODES = (FIVE_CODE[D], FIVE_CODE[DBAR])
#: Codes with both rails fixed and equal: they block a fault effect.
_BLOCKING_CODES = (FIVE_CODE[ZERO], FIVE_CODE[ONE])


def effect_slots(codes: List[int]) -> List[int]:
    """The slots of one frame that carry D or D̄ (D slots first)."""
    raw = bytes(codes)
    slots = []
    for code in _EFFECT_CODES:
        slot = raw.find(code)
        while slot >= 0:
            slots.append(slot)
            slot = raw.find(code, slot + 1)
    return slots


class SearchMeter:
    """Shared effort accounting: backtracks and deadlines.

    One meter serves one fault's search; its ``backtracks`` total goes
    into the fault's :class:`~repro.atpg.result.FaultBook` record.
    """

    def __init__(
        self,
        max_backtracks: int,
        per_fault_seconds: float,
        total_watch: Optional[Stopwatch] = None,
    ):
        self.max_backtracks = max_backtracks
        self.backtracks = 0
        # The per-fault watch ticks on the same clock as the per-circuit
        # watch, so a deterministic WorkClock governs both deadlines.
        clock = total_watch.clock if total_watch is not None else None
        self._fault_watch = Stopwatch(per_fault_seconds, clock=clock)
        self._total_watch = total_watch

    def charge_backtrack(self) -> bool:
        """Count one backtrack; False when the budget is exhausted."""
        self.backtracks += 1
        self._fault_watch.charge(1)
        return not self.exhausted()

    def exhausted(self) -> bool:
        return self.exhausted_reason() is not None

    def exhausted_reason(self) -> Optional[str]:
        """Which budget cut the search, as an ``ABORT_*`` taxonomy
        entry from :mod:`repro.obs.coverage` (None = budget left).

        Check order mirrors the historical ``exhausted()`` priority:
        the backtrack count first, then either deadline — both watches
        tick the same WorkClock, so one taxonomy entry covers them.
        """
        if self.backtracks >= self.max_backtracks:
            return ABORT_BACKTRACK_LIMIT
        if self._fault_watch.expired():
            return ABORT_TIME_BUDGET
        if self._total_watch is not None and self._total_watch.expired():
            return ABORT_TIME_BUDGET
        return None


@dataclasses.dataclass
class Solution:
    """One satisfying assignment found by PODEM."""

    pi_assignment: Dict[Tuple[int, int], int]  # (frame, pi) -> 0/1
    state_cube: Dict[int, int]  # dff position -> 0/1 (frame-0 requirement)
    frames_used: int

    def vectors(self, num_pis: int, fill: int = ZERO) -> List[List[int]]:
        """Concrete input vectors, unassigned PIs filled with ``fill``."""
        result = []
        for frame in range(self.frames_used):
            vector = [
                self.pi_assignment.get((frame, position), fill)
                for position in range(num_pis)
            ]
            result.append(vector)
        return result


@dataclasses.dataclass
class SearchOutcome:
    """How a (possibly multi-solution) search ended."""

    exhausted: bool  # True: full space explored; False: budget cut it


class _Decision:
    __slots__ = ("variable", "value", "flipped")

    def __init__(self, variable: Variable, value: int):
        self.variable = variable
        self.value = value
        self.flipped = False


class _PodemBase:
    """Decision/backtrace/backtrack engine; subclasses define the goal."""

    def __init__(self, model: UnrolledModel, meter: SearchMeter):
        self.model = model
        self.meter = meter
        self.outcome = SearchOutcome(exhausted=False)

    # -- subclass interface -------------------------------------------------

    def goal_satisfied(self, frames: Codes) -> bool:
        raise NotImplementedError

    def goal_impossible(self, frames: Codes) -> bool:
        """True when no extension of the current assignment can reach the
        goal (triggers a backtrack without wasting decisions)."""
        raise NotImplementedError

    def next_objective(
        self, frames: Codes
    ) -> Optional[Tuple[int, int, int]]:
        """(frame, node_index, desired_value) to pursue next, or None if
        no objective can be formed (triggers a backtrack)."""
        raise NotImplementedError

    # -- main loop -------------------------------------------------------------

    def solutions(self) -> Iterator[Solution]:
        """Yield solutions until the space or the budget is exhausted.

        ``self.outcome.exhausted`` is True afterwards iff the search space
        was fully explored (the distinction between *proven* and *aborted*
        in the fault accounting).
        """
        model = self.model
        stack: List[_Decision] = []
        while True:
            if self.meter.exhausted():
                self.outcome.exhausted = False
                return
            frames = model.simulate_codes()
            if self.goal_satisfied(frames):
                yield Solution(
                    pi_assignment=dict(model.pi_assignment),
                    state_cube=model.state_cube(),
                    frames_used=model.num_frames,
                )
                if not self._backtrack(stack):
                    return
                continue
            if self.goal_impossible(frames):
                if not self._backtrack(stack):
                    return
                continue
            objective = self.next_objective(frames)
            if objective is None:
                if not self._backtrack(stack):
                    return
                continue
            variable, value = self._backtrace(frames, objective)
            if variable is None:
                if not self._backtrack(stack):
                    return
                continue
            decision = _Decision(variable, value)
            model.assign(variable, value)
            stack.append(decision)

    def _backtrack(self, stack: List[_Decision]) -> bool:
        """Undo the latest un-flipped decision; False ends the search."""
        if not self.meter.charge_backtrack():
            self.outcome.exhausted = False
            return False
        while stack:
            decision = stack[-1]
            if decision.flipped:
                self.model.unassign(decision.variable)
                stack.pop()
                continue
            decision.flipped = True
            decision.value = ONE if decision.value == ZERO else ZERO
            self.model.assign(decision.variable, decision.value)
            return True
        self.outcome.exhausted = True
        return False

    # -- backtrace ---------------------------------------------------------------

    def _backtrace(
        self, frames: Codes, objective: Tuple[int, int, int]
    ) -> Tuple[Optional[Variable], int]:
        """Walk an objective back to an unassigned decision variable.

        Returns (variable, value) or (None, 0) when the objective is not
        reachable from any free variable (all X-paths blocked).
        """
        model = self.model
        frame, index, value = objective
        guard = 0
        while True:
            guard += 1
            if guard > 10000:
                raise AtpgError("backtrace failed to terminate")
            position = model.pi_position.get(index)
            if position is not None:
                variable = Variable("pi", frame, position)
                if model.value_of(variable) is not None:
                    return None, 0
                return variable, value
            position = model.dff_position.get(index)
            if position is not None:
                if frame == 0:
                    variable = Variable("state", 0, position)
                    if model.value_of(variable) is not None:
                        return None, 0
                    return variable, value
                frame -= 1
                index = model.dff_d_indices()[position]
                continue
            gate = model.node_gate(index)
            if gate in (GateType.CONST0, GateType.CONST1):
                return None, 0
            fanin = model.node_fanin(index)
            values = frames[frame]
            if gate is GateType.BUF:
                index = fanin[0]
                continue
            if gate is GateType.NOT:
                index = fanin[0]
                value = ONE if value == ZERO else ZERO
                continue
            if gate in (GateType.XOR, GateType.XNOR):
                # Choose the first X input; required value depends on the
                # other inputs' parity, undetermined until they settle —
                # aim for the parity assuming other X inputs become 0.
                parity = ONE if gate is GateType.XNOR else ZERO
                chosen = None
                acc = 0
                for input_index in fanin:
                    good = values[input_index] & 3
                    if not good:
                        if chosen is None:
                            chosen = input_index
                    else:
                        acc ^= good >> 1  # rail 1 is 0, rail 2 is 1
                if chosen is None:
                    return None, 0
                needed = acc ^ value ^ (1 if parity == ONE else 0)
                index = chosen
                value = ONE if needed else ZERO
                continue
            controlling = gate.controlling_value()
            inverted = gate.is_inverting
            effective = value
            if inverted:
                effective = ONE if value == ZERO else ZERO
            # effective is now the target of the underlying AND/OR core.
            if gate in (GateType.AND, GateType.NAND):
                need = effective  # 1: all inputs 1; 0: one input 0
                want_all = need == ONE
            else:  # OR / NOR
                need = effective  # 1: one input 1; 0: all inputs 0
                want_all = need == ZERO
            x_inputs = [i for i in fanin if not values[i] & 3]
            if not x_inputs:
                return None, 0
            if want_all:
                # Every input must take the non-controlling value; walk
                # the hardest (deepest) X input first.
                index = max(x_inputs, key=lambda i: self._depth(i))
                value = (
                    ONE if gate in (GateType.AND, GateType.NAND) else ZERO
                )
            else:
                # One controlling input suffices; walk the easiest.
                index = min(x_inputs, key=lambda i: self._depth(i))
                value = controlling
            continue

    def _depth(self, index: int) -> int:
        # Static proxy for controllability: distance from observation
        # structures; reuse dist_po as a cheap depth surrogate.
        distance = self.model.dist_po[index]
        return distance if distance < 10 ** 9 else 0


class FaultPodem(_PodemBase):
    """Excite the fault (frame 0) and propagate a D/D̄ to some PO."""

    def __init__(self, model: UnrolledModel, meter: SearchMeter):
        if model.fault is None:
            raise AtpgError("FaultPodem needs a model with a fault")
        super().__init__(model, meter)
        self._fault_index = model.index_of(model.fault.node)
        self._activation = (
            ONE if model.fault.stuck_at == ZERO else ZERO
        )
        self._activation_rail = _GOOD_RAIL[self._activation]

    def goal_satisfied(self, frames: Codes) -> bool:
        po_indices = self.model.po_indices()
        for codes in frames:
            for po_index in po_indices:
                if codes[po_index] in _EFFECT_CODES:
                    return True
        return False

    def goal_impossible(self, frames: Codes) -> bool:
        good0 = frames[0][self._fault_index] & 3
        if not good0:
            return False  # excitation still open
        if good0 != self._activation_rail:
            return True  # frame-0 excitation conflicts: this branch dies
        # Excited: fault effect must still have an escape route.
        return not self._x_path_exists(frames)

    def next_objective(
        self, frames: Codes
    ) -> Optional[Tuple[int, int, int]]:
        if not frames[0][self._fault_index] & 3:
            return (0, self._fault_index, self._activation)
        frontier = self._d_frontier(frames)
        if not frontier:
            return None
        frame, gate_index = frontier[0]
        codes = frames[frame]
        gate = self.model.node_gate(gate_index)
        noncontrolling = gate.noncontrolling_value()
        for input_index in self.model.node_fanin(gate_index):
            if not codes[input_index] & 3:
                target = (
                    noncontrolling if noncontrolling != X else ONE
                )
                return (frame, input_index, target)
        return None

    def _d_frontier(self, frames: Codes) -> List[Tuple[int, int]]:
        """Gates with a D/D̄ input and an X output, best-first.

        Preference: smaller distance to a PO, then smaller distance to a
        register D-input (a route into the next frame), then later frame
        (fault effects that already travelled far), then topological
        order.  Only the gate readers of D/D̄ slots are candidates.
        """
        model = self.model
        readers = model.gate_fanout_slots
        dist_po = model.dist_po
        dist_dff = model.dist_dff
        last_frame = model.max_frames - 1
        ranked = []
        for frame, codes in enumerate(frames):
            members = {
                reader
                for index in effect_slots(codes)
                for reader in readers[index]
                if not codes[reader]
            }
            for out_index in members:
                ranked.append(
                    (
                        dist_po[out_index],
                        dist_dff[out_index] if frame < last_frame else 10 ** 9,
                        -frame,
                        out_index,
                    )
                )
        ranked.sort()
        return [(-neg_frame, index) for _, _, neg_frame, index in ranked]

    def _x_path_exists(self, frames: Codes) -> bool:
        """Can any D/D̄ still reach a PO through X-valued nodes, within
        the maximum window (frames beyond the current window count as
        fully X)?"""
        model = self.model
        po_set = model.po_slots
        dff_position = model.dff_position
        fanout_slots = model.fanout_slots
        max_frames = model.max_frames
        simulated = len(frames)
        # Seed: nodes carrying D in any simulated frame.
        reached: Set[Tuple[int, int]] = set()
        worklist: List[Tuple[int, int]] = []
        for frame, codes in enumerate(frames):
            for index in effect_slots(codes):
                if index in po_set:
                    return True
                reached.add((frame, index))
                worklist.append((frame, index))
        while worklist:
            frame, index = worklist.pop()
            for reader_index in fanout_slots[index]:
                if reader_index in dff_position:
                    next_frame = frame + 1
                    if next_frame >= max_frames:
                        continue
                    key = (next_frame, reader_index)
                    if key in reached:
                        continue
                    reached.add(key)
                    worklist.append(key)
                    if reader_index in po_set:
                        return True
                    continue
                if frame < simulated:
                    if frames[frame][reader_index] in _BLOCKING_CODES:
                        continue  # blocked by a fixed value
                if reader_index in po_set:
                    return True
                key = (frame, reader_index)
                if key in reached:
                    continue
                reached.add(key)
                worklist.append(key)
        return False


class JustifyPodem(_PodemBase):
    """Make frame-0's next-state lines meet a required state cube."""

    def __init__(
        self,
        model: UnrolledModel,
        meter: SearchMeter,
        required: Dict[int, int],
    ):
        if model.fault is not None:
            raise AtpgError("JustifyPodem runs on the fault-free model")
        super().__init__(model, meter)
        if model.num_frames != 1:
            model.set_frames(1)
        self.required = dict(required)
        # (slot, required value, its good-rail bits) per cube literal.
        self._targets = [
            (model.dff_d_indices()[position], value, _GOOD_RAIL[value])
            for position, value in sorted(self.required.items())
        ]

    def goal_satisfied(self, frames: Codes) -> bool:
        codes = frames[0]
        for index, _, rail in self._targets:
            if codes[index] & 3 != rail:
                return False
        return True

    def goal_impossible(self, frames: Codes) -> bool:
        codes = frames[0]
        for index, _, rail in self._targets:
            good = codes[index] & 3
            if good and good != rail:
                return True
        return False

    def next_objective(
        self, frames: Codes
    ) -> Optional[Tuple[int, int, int]]:
        codes = frames[0]
        for index, value, _ in self._targets:
            if not codes[index] & 3:
                return (0, index, value)
        return None
