"""Compiled word-op simulation kernels.

The bit-parallel simulators all walk the same road: levelize the
netlist once, then evaluate every gate over packed machine words, many
times.  This module compiles that walk into a **flat word-op program**
— a tuple-per-gate evaluation plan with every fanin resolved to a flat
slot index at compile time — and then lowers the program into
generated Python kernels:

* the **plan** is pure data: ``(opcode, out_slot, in_slots)`` tuples in
  topological order, one per gate, with integer opcodes per gate type.
  Plan emission depends only on declaration order (via
  :func:`~repro.circuit.graph.topological_order`), never on dict hash
  order, so plans are PYTHONHASHSEED-stable and identical across worker
  processes.
* the **compiled kernels** are Python source generated from the plan
  (one bitwise expression per gate, constants folded, no per-gate
  dispatch, no dict lookups) and ``exec``-compiled once per circuit:
  a *clean* kernel for override-free evaluation and a *masked* kernel
  through which every gate's value passes a keep/force pair
  (``V[o] = (expr) & K[o] | F[o]``).  Stuck-at override programs are
  precomputed at batch-build time as flat ``K``/``F`` arrays
  (identity almost everywhere), so the fault simulator pays for
  overrides once per batch instead of probing a dict per gate per
  step — and never recompiles, however the batch composition churns.
* the **reference interpreter** (:meth:`CompiledProgram.interpret`)
  executes the same plan tuples through explicit opcode dispatch.  It
  is deliberately retained as the slow twin of the generated kernels:
  the differential oracle in ``tests/sim/test_compile_oracle.py`` pins
  the two byte-identical on random circuits, patterns and override
  maps.

A four-rail five-valued path (:meth:`CompiledProgram.five_valued_kernel`)
lowers the same plan into the D-calculus kernel of the ATPG time-frame
model (:mod:`repro.atpg.frames`): one code per node, one 16-entry
output table per slot, compiled lazily once per circuit.

A two-bit interleaved encoding path (:class:`TernaryWordProgram`)
carries ternary 0/1/X logic through the same compilation scheme: each
signal owns two adjacent word slots (a "could be 0" rail and a "could
be 1" rail; neither set means X), so :class:`~repro.sim.logicsim.
TernarySimulator` consumers can migrate to word-parallel ternary
simulation without a third value system.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import D, DBAR, ONE, X, ZERO, GateType, ternary_xor
from ..circuit.graph import topological_order
from ..circuit.memo import CircuitMemo, clear_circuit_memos
from ..circuit.netlist import Circuit, NodeKind
from ..errors import SimulationError

# --------------------------------------------------------------------------
# Word-op opcodes.  Small ints so plan tuples are compact, comparable and
# printable; the mapping is part of the plan's stable emission contract.
# --------------------------------------------------------------------------

OP_BUF = 0
OP_NOT = 1
OP_AND = 2
OP_OR = 3
OP_NAND = 4
OP_NOR = 5
OP_XOR = 6
OP_XNOR = 7
OP_CONST0 = 8
OP_CONST1 = 9

_GATE_OPCODE = {
    GateType.BUF: OP_BUF,
    GateType.NOT: OP_NOT,
    GateType.AND: OP_AND,
    GateType.OR: OP_OR,
    GateType.NAND: OP_NAND,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.CONST0: OP_CONST0,
    GateType.CONST1: OP_CONST1,
}

OPCODE_NAMES = {
    OP_BUF: "buf",
    OP_NOT: "not",
    OP_AND: "and",
    OP_OR: "or",
    OP_NAND: "nand",
    OP_NOR: "nor",
    OP_XOR: "xor",
    OP_XNOR: "xnor",
    OP_CONST0: "const0",
    OP_CONST1: "const1",
}

WordOp = Tuple[int, int, Tuple[int, ...]]  # (opcode, out_slot, in_slots)


def _two_valued_expr(opcode: int, in_slots: Tuple[int, ...]) -> str:
    """The two-valued bitwise expression for one word op.

    Interior values are *not* masked: Python's two's-complement ints
    keep every bitwise op exact, so inverting ops may leave
    sign-extended words whose bits above the pattern mask are garbage.
    Sources are masked on load and every extraction point (POs, DFF D
    inputs) masks on read, so the garbage is never observed — and the
    hot loop saves one ``& m`` per inverting gate.
    """
    refs = [f"V[{slot}]" for slot in in_slots]
    if opcode == OP_CONST0:
        return "0"
    if opcode == OP_CONST1:
        return "m"
    if opcode == OP_BUF:
        return refs[0]
    if opcode == OP_NOT:
        return f"~{refs[0]}"
    if opcode == OP_AND:
        return " & ".join(refs)
    if opcode == OP_NAND:
        return f"~({' & '.join(refs)})"
    if opcode == OP_OR:
        return " | ".join(refs)
    if opcode == OP_NOR:
        return f"~({' | '.join(refs)})"
    if opcode == OP_XOR:
        return " ^ ".join(refs)
    if opcode == OP_XNOR:
        return f"~({' ^ '.join(refs)})"
    raise SimulationError(f"unknown opcode {opcode}")


def compile_plan(circuit: Circuit) -> Tuple[WordOp, ...]:
    """Emit the flat word-op plan for ``circuit`` (gates only, in
    topological order, fanins resolved to slot indices)."""
    order = topological_order(circuit)
    index = {name: i for i, name in enumerate(order)}
    plan: List[WordOp] = []
    for name in order:
        node = circuit.node(name)
        if node.kind is NodeKind.GATE:
            plan.append(
                (
                    _GATE_OPCODE[node.gate],
                    index[name],
                    tuple(index[f] for f in node.fanin),
                )
            )
    return tuple(plan)


# --------------------------------------------------------------------------
# Four-rail five-valued encoding (the D-calculus of the time-frame model).
# --------------------------------------------------------------------------

#: Rail bits of a five-valued code: good-circuit 0 and 1, faulty-circuit
#: 0 and 1.  A rail pair with neither bit set is unknown.
GOOD0, GOOD1, FAULTY0, FAULTY1 = 1, 2, 4, 8

_LITERAL_CODE = {
    ZERO: GOOD0 | FAULTY0,  # 5
    ONE: GOOD1 | FAULTY1,  # 10
    X: 0,
    D: GOOD1 | FAULTY0,  # 6
    DBAR: GOOD0 | FAULTY1,  # 9
}
_CODE_LITERAL = {code: value for value, code in _LITERAL_CODE.items()}

#: Code of each five-valued literal, indexed by the literal.
FIVE_CODE: Tuple[int, ...] = tuple(
    _LITERAL_CODE[value] for value in range(len(_LITERAL_CODE))
)
#: Literal of each of the 16 codes; codes that mix a known with an
#: unknown rail pair decode to X.
FIVE_DECODE: Tuple[int, ...] = tuple(
    _CODE_LITERAL.get(code, X) for code in range(16)
)
#: The collapse of every code to a literal's code (mixed pairs to X),
#: which :func:`repro.circuit.gates.five_join` applies at every gate
#: output.
FIVE_COLLAPSE: Tuple[int, ...] = tuple(
    _LITERAL_CODE[FIVE_DECODE[code]] for code in range(16)
)
#: Collapse then inversion (swap each circuit's 0 and 1 rails).
FIVE_COLLAPSE_INVERT: Tuple[int, ...] = tuple(
    (code & (GOOD0 | FAULTY0)) << 1 | (code >> 1) & (GOOD0 | FAULTY0)
    for code in FIVE_COLLAPSE
)

_RAIL_PAIR = {ZERO: 1, ONE: 2, X: 0}


def _rail_value(code: int, shift: int) -> int:
    """The ternary value of one circuit's rail pair (X unless exactly
    one rail is set)."""
    return {1: ZERO, 2: ONE}.get((code >> shift) & 3, X)


#: Two-input XOR of codes, exact per rail (no collapse), so multi-input
#: XOR reduces pairwise: ``FIVE_XOR[FIVE_XOR[a][b]][c]``.
FIVE_XOR: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(
        _RAIL_PAIR[ternary_xor([_rail_value(a, 0), _rail_value(b, 0)])]
        | _RAIL_PAIR[ternary_xor([_rail_value(a, 2), _rail_value(b, 2)])] << 2
        for b in range(16)
    )
    for a in range(16)
)

_INVERTING_OPCODES = frozenset((OP_NOT, OP_NAND, OP_NOR, OP_XNOR))


def five_stuck_table(table: Tuple[int, ...], stuck_at: int) -> Tuple[int, ...]:
    """``table`` followed by a stuck-at override: the good rails pass,
    the faulty rails are forced to ``stuck_at``, mixed pairs collapse."""
    forced = FAULTY0 if stuck_at == ZERO else FAULTY1
    return tuple(
        FIVE_COLLAPSE[table[code] & (GOOD0 | GOOD1) | forced]
        for code in range(16)
    )


def _five_valued_expr(opcode: int, in_slots: Tuple[int, ...]) -> str:
    """The raw (uncollapsed) code expression for one gate; the slot's
    output table collapses and inverts it."""
    refs = [f"V[{slot}]" for slot in in_slots]
    if opcode == OP_CONST0:
        return str(FIVE_CODE[ZERO])
    if opcode == OP_CONST1:
        return str(FIVE_CODE[ONE])
    if opcode in (OP_BUF, OP_NOT):
        return refs[0]
    if opcode in (OP_AND, OP_NAND):
        # 0 rails: any input's; 1 rails: every input's.
        return f"({' | '.join(refs)}) & 5 | {' & '.join(refs)} & 10"
    if opcode in (OP_OR, OP_NOR):
        return f"({' | '.join(refs)}) & 10 | {' & '.join(refs)} & 5"
    if opcode in (OP_XOR, OP_XNOR):
        expr = refs[0]
        for ref in refs[1:]:
            expr = f"X2[{expr}][{ref}]"
        return expr
    raise SimulationError(f"unknown opcode {opcode}")


class CompiledProgram:
    """One circuit compiled to a word-op plan plus generated kernels.

    The circuit must not be structurally modified after compilation;
    :func:`compiled_program_cached` checks the netlist's structure
    version and recompiles when it changed.
    """

    def __init__(self, circuit: Circuit):
        circuit.check()
        self.circuit = circuit
        self.order: Tuple[str, ...] = tuple(topological_order(circuit))
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.order)
        }
        self.num_slots = len(self.order)
        self.input_slots: Tuple[int, ...] = tuple(
            self.index[name] for name in circuit.inputs
        )
        self.output_slots: Tuple[int, ...] = tuple(
            self.index[name] for name in circuit.outputs
        )
        dff_names = circuit.dff_names()
        self.dff_out_slots: Tuple[int, ...] = tuple(
            self.index[name] for name in dff_names
        )
        self.dff_d_slots: Tuple[int, ...] = tuple(
            self.index[circuit.node(name).fanin[0]] for name in dff_names
        )
        self.source_slots = frozenset(self.input_slots) | frozenset(
            self.dff_out_slots
        )
        self.plan: Tuple[WordOp, ...] = tuple(
            (
                _GATE_OPCODE[circuit.node(name).gate],
                self.index[name],
                tuple(self.index[f] for f in circuit.node(name).fanin),
            )
            for name in self.order
            if circuit.node(name).kind is NodeKind.GATE
        )
        # Two kernels per circuit, compiled once: the clean kernel for
        # override-free evaluation and the masked kernel, which routes
        # every gate's value through per-slot keep/force words.  Batch
        # override programs are the (K, F) arrays fed to the latter —
        # built per fault batch, never recompiled.
        self.kernel = self._compile_kernel(masked=False)
        self.masked_kernel = self._compile_kernel(masked=True)

    # -- generated kernels -------------------------------------------------

    def render_source(self, masked: bool = False) -> str:
        """The generated kernel source (deterministic per plan — the
        hash-seed stability test prints this alongside the plan tuples).

        The masked variant applies
        ``(word & ~affected) | (forced & affected & mask)`` per gate
        with ``K[o] = ~affected`` and ``F[o]`` pre-masked at bind time;
        unoverridden slots carry the identity pair ``(-1, 0)``.
        """
        if masked:
            lines = ["def _wordop_masked_kernel(V, m, K, F):"]
        else:
            lines = ["def _wordop_kernel(V, m):"]
        for opcode, out_slot, in_slots in self.plan:
            expr = _two_valued_expr(opcode, in_slots)
            if masked:
                lines.append(
                    f"    V[{out_slot}] = ({expr}) & K[{out_slot}] "
                    f"| F[{out_slot}]"
                )
            else:
                lines.append(f"    V[{out_slot}] = {expr}")
        if len(lines) == 1:
            lines.append("    pass")
        return "\n".join(lines) + "\n"

    def _compile_kernel(self, masked: bool) -> Callable:
        namespace: Dict[str, object] = {}
        variant = "masked" if masked else "clean"
        exec(  # noqa: S102 - source generated from the plan above
            compile(
                self.render_source(masked),
                f"<wordop:{self.circuit.name}:{variant}>",
                "exec",
            ),
            namespace,
        )
        name = "_wordop_masked_kernel" if masked else "_wordop_kernel"
        return namespace[name]

    # -- five-valued kernel ------------------------------------------------

    def render_five_valued_source(self) -> str:
        """The generated five-valued kernel source: one
        ``V[o] = T[o][expr]`` line per gate over four-rail codes."""
        lines = ["def _five_valued_kernel(V, T):"]
        for opcode, out_slot, in_slots in self.plan:
            expr = _five_valued_expr(opcode, in_slots)
            lines.append(f"    V[{out_slot}] = T[{out_slot}][{expr}]")
        if len(lines) == 1:
            lines.append("    pass")
        return "\n".join(lines) + "\n"

    @functools.cached_property
    def five_valued_kernel(self) -> Callable:
        """One frame of five-valued evaluation, ``kernel(V, T)``: ``V``
        holds a code per slot with the sources loaded, ``T`` a 16-entry
        output table per slot (:attr:`five_valued_tables`, with a fault
        site's table swapped).  Compiled on first use, so circuits that
        never meet PODEM never pay for it."""
        namespace: Dict[str, object] = {"X2": FIVE_XOR}
        exec(  # noqa: S102 - source generated from the plan above
            compile(
                self.render_five_valued_source(),
                f"<five-valued:{self.circuit.name}>",
                "exec",
            ),
            namespace,
        )
        return namespace["_five_valued_kernel"]

    @functools.cached_property
    def five_valued_tables(self) -> Tuple[Tuple[int, ...], ...]:
        """The fault-free output table of every slot: collapse, plus
        inversion for inverting gates.  Source slots carry the plain
        collapse, which only a stuck-at override there ever reads."""
        tables = [FIVE_COLLAPSE] * self.num_slots
        for opcode, out_slot, _ in self.plan:
            if opcode in _INVERTING_OPCODES:
                tables[out_slot] = FIVE_COLLAPSE_INVERT
        return tuple(tables)

    def override_arrays(
        self,
        gate_overrides: Dict[int, Tuple[int, int]],
        mask: int,
    ) -> Tuple[List[int], List[int]]:
        """Precompute one batch's override program for the masked
        kernel: flat keep/force arrays, identity everywhere except the
        overridden gate slots."""
        keep = [-1] * self.num_slots
        force = [0] * self.num_slots
        for slot, (affected, forced) in gate_overrides.items():
            if slot in self.source_slots or not 0 <= slot < self.num_slots:
                raise SimulationError(
                    f"cannot override slot {slot}: not a gate slot "
                    "(source overrides are applied before the kernel runs)"
                )
            keep[slot] = ~affected
            force[slot] = forced & affected & mask
        return keep, force

    # -- reference interpreter --------------------------------------------

    def interpret(
        self,
        values: List[int],
        mask: int,
        overrides: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> None:
        """Execute the plan through explicit opcode dispatch.

        The semantic twin of the generated kernels, kept as the slow
        reference for the differential oracle (``overrides`` maps gate
        slot -> ``(affected_bits, forced_word)`` exactly like
        :meth:`ParallelSimulator.evaluate <repro.sim.parallel.
        ParallelSimulator.evaluate>` documents).  Word values mirror the
        kernels bit-for-bit *including* the sign-extended garbage above
        the mask (interior values are unmasked in both), so the oracle
        can compare whole value arrays, not just extraction points —
        which is why AND/NAND fold from the first operand instead of a
        mask seed.
        """
        for opcode, out_slot, in_slots in self.plan:
            if opcode == OP_AND:
                word = values[in_slots[0]]
                for slot in in_slots[1:]:
                    word &= values[slot]
            elif opcode == OP_OR:
                word = 0
                for slot in in_slots:
                    word |= values[slot]
            elif opcode == OP_NAND:
                word = values[in_slots[0]]
                for slot in in_slots[1:]:
                    word &= values[slot]
                word = ~word
            elif opcode == OP_NOR:
                word = 0
                for slot in in_slots:
                    word |= values[slot]
                word = ~word
            elif opcode == OP_XOR:
                word = 0
                for slot in in_slots:
                    word ^= values[slot]
            elif opcode == OP_XNOR:
                word = 0
                for slot in in_slots:
                    word ^= values[slot]
                word = ~word
            elif opcode == OP_NOT:
                word = ~values[in_slots[0]]
            elif opcode == OP_BUF:
                word = values[in_slots[0]]
            elif opcode == OP_CONST0:
                word = 0
            elif opcode == OP_CONST1:
                word = mask
            else:
                raise SimulationError(f"unknown opcode {opcode}")
            if overrides and out_slot in overrides:
                affected, forced = overrides[out_slot]
                word = (word & ~affected) | (forced & affected & mask)
            values[out_slot] = word


# --------------------------------------------------------------------------
# Per-circuit program cache.
# --------------------------------------------------------------------------

_PROGRAMS: CircuitMemo[CompiledProgram] = CircuitMemo()


def compiled_program_cached(circuit: Circuit) -> CompiledProgram:
    """One :class:`CompiledProgram` per live circuit object.

    Every simulator bound to the same netlist (the good-machine
    simulator, each engine's fault simulator, the expansion pass)
    shares one compilation (plan plus both generated kernels).  The
    cache entry is validated against the netlist's structure version,
    so mutating a circuit (synthesis cleanup, retiming) transparently
    recompiles on next use instead of aliasing a stale plan.
    """
    return _PROGRAMS.get(circuit, CompiledProgram)


def clear_program_cache() -> None:
    """Drop all cached compiled programs, together with every other
    per-circuit memo (reachable sets, lint reports; see
    :mod:`repro.circuit.memo`).  Tests and the suite-level
    :func:`repro.harness.suite.clear_caches` use this."""
    clear_circuit_memos()


# --------------------------------------------------------------------------
# Two-bit interleaved ternary encoding.
# --------------------------------------------------------------------------

_TERNARY_RAILS = {
    ZERO: (1, 0),  # (zero rail, one rail)
    ONE: (0, 1),
    X: (0, 0),
}


def pack_ternary_patterns(
    patterns: Sequence[Sequence[int]], position: int
) -> Tuple[int, int]:
    """Pack position ``position`` of ternary patterns into a dual-rail
    word pair ``(zero_word, one_word)``; pattern i lands on bit i of
    both rails (neither bit set encodes X)."""
    zero_word = 0
    one_word = 0
    for i, pattern in enumerate(patterns):
        value = pattern[position]
        try:
            z, o = _TERNARY_RAILS[value]
        except (KeyError, TypeError):
            raise SimulationError(
                f"pattern {i} position {position} is {value!r}; expected "
                "a ternary 0/1/X value"
            ) from None
        zero_word |= z << i
        one_word |= o << i
    return zero_word, one_word


def unpack_ternary_word(pair: Tuple[int, int], count: int) -> List[int]:
    """Inverse of :func:`pack_ternary_patterns` for one signal."""
    zero_word, one_word = pair
    if zero_word & one_word:
        raise SimulationError(
            "invalid dual-rail encoding: a lane claims both 0 and 1"
        )
    values = []
    for i in range(count):
        if (zero_word >> i) & 1:
            values.append(ZERO)
        elif (one_word >> i) & 1:
            values.append(ONE)
        else:
            values.append(X)
    return values


def _ternary_lines(
    opcode: int, out_slot: int, in_slots: Tuple[int, ...]
) -> List[str]:
    """Generated dual-rail lines for one gate.

    Signal ``s`` owns interleaved slots ``2s`` (zero rail) and
    ``2s + 1`` (one rail); the emitted expressions implement the
    controlling-value ternary semantics of :func:`repro.circuit.gates.
    eval_gate` rail-parallel.
    """
    z_out, o_out = 2 * out_slot, 2 * out_slot + 1
    zs = [f"V[{2 * slot}]" for slot in in_slots]
    os_ = [f"V[{2 * slot + 1}]" for slot in in_slots]
    if opcode == OP_CONST0:
        return [f"    V[{z_out}] = m", f"    V[{o_out}] = 0"]
    if opcode == OP_CONST1:
        return [f"    V[{z_out}] = 0", f"    V[{o_out}] = m"]
    if opcode == OP_BUF:
        return [f"    V[{z_out}] = {zs[0]}", f"    V[{o_out}] = {os_[0]}"]
    if opcode == OP_NOT:
        return [f"    V[{z_out}] = {os_[0]}", f"    V[{o_out}] = {zs[0]}"]
    if opcode in (OP_AND, OP_NAND):
        one_expr = " & ".join(os_)  # 1 iff every input is 1
        zero_expr = " | ".join(zs)  # 0 iff any input is 0
        if opcode == OP_AND:
            return [
                f"    V[{z_out}] = {zero_expr}",
                f"    V[{o_out}] = {one_expr}",
            ]
        return [
            f"    V[{z_out}] = {one_expr}",
            f"    V[{o_out}] = {zero_expr}",
        ]
    if opcode in (OP_OR, OP_NOR):
        one_expr = " | ".join(os_)
        zero_expr = " & ".join(zs)
        if opcode == OP_OR:
            return [
                f"    V[{z_out}] = {zero_expr}",
                f"    V[{o_out}] = {one_expr}",
            ]
        return [
            f"    V[{z_out}] = {one_expr}",
            f"    V[{o_out}] = {zero_expr}",
        ]
    if opcode in (OP_XOR, OP_XNOR):
        known = " & ".join(f"({z} | {o})" for z, o in zip(zs, os_))
        odd = " ^ ".join(os_)
        lines = [f"    t = {known}", f"    u = {odd}"]
        if opcode == OP_XOR:
            lines.append(f"    V[{o_out}] = u & t")
            lines.append(f"    V[{z_out}] = t & ~u")
        else:
            lines.append(f"    V[{z_out}] = u & t")
            lines.append(f"    V[{o_out}] = t & ~u")
        return lines
    raise SimulationError(f"unknown opcode {opcode}")


class TernaryWordProgram:
    """Word-parallel ternary simulation over the two-bit interleaved
    encoding (the migration path for :class:`~repro.sim.logicsim.
    TernarySimulator` consumers that need many ternary patterns per
    pass — state-traversal sweeps, X-initialization studies).

    Each packed lane carries one independent ternary pattern; values
    travel as ``(zero_word, one_word)`` rail pairs built with
    :func:`pack_ternary_patterns`.
    """

    def __init__(self, circuit: Circuit):
        self.program = compiled_program_cached(circuit)
        self.circuit = circuit
        lines = ["def _ternary_kernel(V, m):"]
        body = False
        for opcode, out_slot, in_slots in self.program.plan:
            lines.extend(_ternary_lines(opcode, out_slot, in_slots))
            body = True
        if not body:
            lines.append("    pass")
        namespace: Dict[str, object] = {}
        exec(  # noqa: S102 - source generated from the plan above
            compile(
                "\n".join(lines) + "\n",
                f"<ternary-wordop:{circuit.name}>",
                "exec",
            ),
            namespace,
        )
        self._kernel = namespace["_ternary_kernel"]

    def evaluate(
        self,
        pi_pairs: Sequence[Tuple[int, int]],
        state_pairs: Sequence[Tuple[int, int]],
        mask: int,
    ) -> List[Tuple[int, int]]:
        """One combinational evaluation; returns per-slot rail pairs."""
        program = self.program
        if len(pi_pairs) != len(program.input_slots):
            raise SimulationError(
                f"expected {len(program.input_slots)} PI rail pairs, got "
                f"{len(pi_pairs)}"
            )
        if len(state_pairs) != len(program.dff_out_slots):
            raise SimulationError(
                f"expected {len(program.dff_out_slots)} state rail pairs, "
                f"got {len(state_pairs)}"
            )
        values = [0] * (2 * program.num_slots)
        for slot, (zero_word, one_word) in zip(
            program.input_slots, pi_pairs
        ):
            if zero_word & one_word:
                raise SimulationError(
                    "invalid dual-rail encoding: a lane claims both 0 and 1"
                )
            values[2 * slot] = zero_word & mask
            values[2 * slot + 1] = one_word & mask
        for slot, (zero_word, one_word) in zip(
            program.dff_out_slots, state_pairs
        ):
            if zero_word & one_word:
                raise SimulationError(
                    "invalid dual-rail encoding: a lane claims both 0 and 1"
                )
            values[2 * slot] = zero_word & mask
            values[2 * slot + 1] = one_word & mask
        self._kernel(values, mask)
        return [
            (values[2 * slot], values[2 * slot + 1])
            for slot in range(program.num_slots)
        ]

    def step(
        self,
        pi_pairs: Sequence[Tuple[int, int]],
        state_pairs: Sequence[Tuple[int, int]],
        mask: int,
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """Apply one packed ternary vector: ``(po_pairs, next_state)``."""
        pairs = self.evaluate(pi_pairs, state_pairs, mask)
        program = self.program
        po_pairs = [pairs[slot] for slot in program.output_slots]
        next_state = [pairs[slot] for slot in program.dff_d_slots]
        return po_pairs, next_state
