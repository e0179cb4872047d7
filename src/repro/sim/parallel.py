"""Bit-parallel two-valued simulation (64 patterns per word).

The PROOFS-style fault simulator and the simulation-based ATPG both need
to push many fully-specified patterns through a circuit cheaply.  This
simulator packs one pattern per bit of a Python integer, evaluating each
gate once per word with bitwise operations — the classical
"parallel-pattern single-fault propagation" substrate.

Evaluation runs on the word-op kernels of :mod:`repro.sim.compile`: the
netlist is compiled once into a flat plan and ``exec``-generated Python
kernels (no per-gate dispatch, no dict lookups in the hot loop).  The
``backend="interpreted"`` switch selects the retained reference
interpreter over the same plan — the slow twin the differential oracle
pins byte-identical to the kernels.

Values must be fully specified (0/1).  For unknown-value reasoning use
:class:`repro.sim.logicsim.TernarySimulator` (or the two-bit dual-rail
:class:`repro.sim.compile.TernaryWordProgram`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import ONE, ZERO
from ..circuit.netlist import Circuit
from ..errors import SimulationError
from .compile import CompiledProgram, compiled_program_cached

WORD_BITS = 64

BACKENDS = ("compiled", "interpreted")


def pack_patterns(patterns: Sequence[Sequence[int]], position: int) -> int:
    """Pack bit ``position`` of each pattern into one word (pattern i ->
    bit i).  All values must be 0/1, and at most :data:`WORD_BITS`
    patterns fit one word — a 65th pattern would land on bit 64, which
    every masked evaluation silently truncates."""
    if len(patterns) > WORD_BITS:
        raise SimulationError(
            f"cannot pack {len(patterns)} patterns into one "
            f"{WORD_BITS}-bit word; split the batch"
        )
    word = 0
    for i, pattern in enumerate(patterns):
        bit = pattern[position]
        if bit not in (ZERO, ONE):
            raise SimulationError(
                f"pattern {i} position {position} is {bit!r}; parallel "
                "simulation requires fully specified values"
            )
        word |= bit << i
    return word


def unpack_word(word: int, count: int) -> List[int]:
    """Inverse of :func:`pack_patterns` for one signal: bit i -> value i."""
    if count > WORD_BITS:
        raise SimulationError(
            f"cannot unpack {count} patterns from one {WORD_BITS}-bit "
            "word; bits beyond the word limit carry no data"
        )
    return [(word >> i) & 1 for i in range(count)]


class BoundStepper:
    """One override map bound to one simulator at a fixed mask.

    Built once per lane pass (:meth:`ParallelSimulator.bind_overrides`),
    then stepped per vector: the override split (source vs gate slots),
    the kernel choice and the flat keep/force arrays are all resolved
    here, so the per-step path does no dict probing at all.
    """

    __slots__ = (
        "_sim",
        "_program",
        "_mask",
        "_source_ops",
        "_run_kernel",
        "_gate_overrides",
        "_scratch",
    )

    def __init__(
        self,
        sim: "ParallelSimulator",
        overrides: Optional[Dict[int, Tuple[int, int]]],
        mask: int,
    ):
        self._sim = sim
        program = sim.program
        self._program = program
        self._mask = mask
        source_ops: List[Tuple[int, int, int]] = []
        gate_overrides: Dict[int, Tuple[int, int]] = {}
        for slot, (affected, forced) in (overrides or {}).items():
            if slot in program.source_slots:
                source_ops.append(
                    (slot, ~affected, forced & affected & mask)
                )
            else:
                gate_overrides[slot] = (affected, forced)
        self._source_ops = source_ops
        self._gate_overrides = gate_overrides or None
        if sim.backend == "interpreted":
            overrides_ref = self._gate_overrides

            def run_kernel(values):
                program.interpret(values, mask, overrides_ref)

        elif gate_overrides:
            # The batch's override program: flat keep/force arrays for
            # the masked kernel, computed once per bind.
            keep, force = program.override_arrays(gate_overrides, mask)
            masked_kernel = program.masked_kernel

            def run_kernel(values):
                masked_kernel(values, mask, keep, force)

        else:
            clean_kernel = program.kernel

            def run_kernel(values):
                clean_kernel(values, mask)

        self._run_kernel = run_kernel
        # All slots are rewritten on every step (sources reloaded, every
        # gate slot assigned by the plan), so one scratch array serves
        # the stepper's whole lifetime.
        self._scratch = [0] * program.num_slots

    def step(
        self, pi_words: Sequence[int], state_words: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        """Apply one packed vector: returns ``(po_words, next_state)``.

        Interior kernel values are unmasked (sign-extended words above
        the pattern mask), so extraction masks on read — returned words
        are always canonical.
        """
        sim = self._sim
        sim.pattern_batches += 1
        sim.words_packed += len(pi_words) + len(state_words)
        program = self._program
        mask = self._mask
        values = self._scratch
        for slot, word in zip(program.input_slots, pi_words):
            values[slot] = word & mask
        for slot, word in zip(program.dff_out_slots, state_words):
            values[slot] = word & mask
        for slot, keep, force in self._source_ops:
            values[slot] = values[slot] & keep | force
        self._run_kernel(values)
        po_words = [values[slot] & mask for slot in program.output_slots]
        next_state = [values[slot] & mask for slot in program.dff_d_slots]
        return po_words, next_state

    def run_lanes(
        self,
        pi_steps: Sequence[Sequence[int]],
        state_words: Sequence[int],
        block: int,
        ends: Dict[int, int],
        until_caught: bool = True,
    ) -> Tuple[Dict[int, int], List[List[int]]]:
        """Run one lane-parallel pass; returns ``(first, states)``.

        The word is cut into blocks of ``block`` lanes, one block per
        sequence: the block's lowest lane is that sequence's good
        machine, the others its faulty machines.  A faulty lane is
        detected at the first step where it differs from its block's
        good lane at any PO.  ``ends`` maps a sequence length to the
        faulty lanes of the blocks whose sequence has that many
        vectors; those lanes stop counting once their sequence ends.
        ``pi_steps[t]`` holds step ``t``'s PI words, already within the
        stepper's mask.

        ``first`` maps each detected lane to its first detection step
        (0-based); ``states[t]`` holds the raw next-state words after
        step ``t`` (unmasked: read a lane with ``(word >> lane) & 1``).
        With ``until_caught`` the pass stops after the step on which
        the last watched lane is detected or its sequence ends.
        Increments no counters: the fault simulator charges its own
        accounting schedule.
        """
        program = self._program
        mask = self._mask
        goods = mask // ((1 << block) - 1)  # the lowest lane of each block
        input_slots = program.input_slots
        dff_out_slots = program.dff_out_slots
        output_slots = program.output_slots
        dff_d_slots = program.dff_d_slots
        source_ops = self._source_ops
        run_kernel = self._run_kernel
        values = self._scratch
        pending = (mask ^ goods) & ~ends.get(0, 0)
        first: Dict[int, int] = {}
        states: List[List[int]] = []
        state = state_words
        for step, pi_words in enumerate(pi_steps):
            for slot, word in zip(input_slots, pi_words):
                values[slot] = word
            for slot, word in zip(dff_out_slots, state):
                values[slot] = word & mask
            for slot, keep, force in source_ops:
                values[slot] = values[slot] & keep | force
            run_kernel(values)
            # Next-state words stay unmasked; the source load above
            # masks them on the way back in.
            state = [values[slot] for slot in dff_d_slots]
            states.append(state)
            diff = 0
            for slot in output_slots:
                word = values[slot]
                good = word & goods
                # (good << block) - good copies each good bit over its
                # whole block.
                diff |= word ^ ((good << block) - good)
            caught = diff & pending
            if caught:
                pending ^= caught
                while caught:
                    low = caught & -caught
                    first[low.bit_length() - 1] = step
                    caught ^= low
            pending &= ~ends.get(step + 1, 0)
            if until_caught and not pending:
                break
        return first, states


class ParallelSimulator:
    """Compiled word-parallel two-valued simulator for one circuit.

    ``pattern_batches`` / ``words_packed`` count effort as plain ints
    (read together through :meth:`counters`); counting is
    unconditional, so the hot path stays branch-free.

    ``backend`` selects ``"compiled"`` (generated word-op kernels, the
    default) or ``"interpreted"`` (the reference plan interpreter).
    Both produce byte-identical words and counters; the interpreter
    exists for differential testing and ablation.
    """

    def __init__(
        self,
        circuit: Circuit,
        backend: str = "compiled",
    ):
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown simulation backend {backend!r}; expected one "
                f"of {BACKENDS}"
            )
        self.circuit = circuit
        self.backend = backend
        self.program: CompiledProgram = compiled_program_cached(circuit)
        self.pattern_batches = 0
        self.words_packed = 0
        # Legacy aliases (pre-compile layout); external code and tests
        # navigate slots through node_index(), these stay for direct
        # pokes at the value array.
        self._order = list(self.program.order)
        self._index = self.program.index
        self._inputs = list(self.program.input_slots)
        self._outputs = list(self.program.output_slots)
        self._dff_out = list(self.program.dff_out_slots)
        self._dff_d = list(self.program.dff_d_slots)

    @property
    def num_dffs(self) -> int:
        return len(self.program.dff_out_slots)

    def node_index(self, name: str) -> int:
        try:
            return self.program.index[name]
        except KeyError:
            raise SimulationError(f"no node named {name!r}") from None

    def charge(self, steps: int) -> None:
        """Count ``steps`` word evaluations of one machine word:
        ``sim.pattern_batches`` by ``steps`` and ``sim.words_packed`` by
        one word per PI and per DFF per step."""
        self.pattern_batches += steps
        self.words_packed += steps * (
            len(self.program.input_slots) + len(self.program.dff_out_slots)
        )

    def counters(self) -> Dict[str, int]:
        """The ``sim.pattern_batches`` / ``sim.words_packed`` effort."""
        return {
            "sim.pattern_batches": self.pattern_batches,
            "sim.words_packed": self.words_packed,
        }

    def bind_overrides(
        self,
        overrides: Optional[Dict[int, Tuple[int, int]]],
        mask: int,
    ) -> BoundStepper:
        """Precompile one override map into a reusable stepper.

        ``overrides`` maps node slot -> ``(affected_bits, forced_word)``
        exactly as :meth:`evaluate` documents; the returned stepper
        applies them with baked constants instead of per-step dict
        probes.
        """
        return BoundStepper(self, overrides, mask)

    def evaluate(
        self,
        pi_words: Sequence[int],
        state_words: Sequence[int],
        mask: int,
        overrides: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> List[int]:
        """One combinational evaluation over packed words.

        ``overrides`` maps node index -> ``(affected_bits, forced_word)``:
        in the bit positions of ``affected_bits`` the node's value is
        replaced by ``forced_word`` *after* the node is evaluated and
        before any fanout reads it.  This is how the fault simulator runs
        many machines per word, each with its own stuck-at fault: a
        stuck-at-1 on node n affecting machine ``i`` is
        ``overrides[n] = (1 << i, 1 << i)``.

        The returned array is the raw kernel value store: gate slots may
        carry sign-extended words whose bits above ``mask`` are garbage
        (interior values are unmasked — identically so on both
        backends).  Bits within ``mask`` are always exact; ``& mask``
        before interpreting a gate slot's word.
        """
        program = self.program
        if len(pi_words) != len(program.input_slots):
            raise SimulationError(
                f"expected {len(program.input_slots)} PI words, got "
                f"{len(pi_words)}"
            )
        if len(state_words) != len(program.dff_out_slots):
            raise SimulationError(
                f"expected {len(program.dff_out_slots)} state words, got "
                f"{len(state_words)}"
            )
        self.pattern_batches += 1
        self.words_packed += len(pi_words) + len(state_words)
        values = [0] * program.num_slots
        for slot, word in zip(program.input_slots, pi_words):
            values[slot] = word & mask
        for slot, word in zip(program.dff_out_slots, state_words):
            values[slot] = word & mask
        gate_overrides: Optional[Dict[int, Tuple[int, int]]] = None
        if overrides:
            for slot, (affected, forced) in overrides.items():
                if slot in program.source_slots:
                    values[slot] = (values[slot] & ~affected) | (
                        forced & affected & mask
                    )
                else:
                    if gate_overrides is None:
                        gate_overrides = {}
                    gate_overrides[slot] = (affected, forced)
        if self.backend == "interpreted":
            program.interpret(values, mask, gate_overrides)
        elif gate_overrides:
            keep, force = program.override_arrays(gate_overrides, mask)
            program.masked_kernel(values, mask, keep, force)
        else:
            program.kernel(values, mask)
        return values

    def step(
        self,
        pi_words: Sequence[int],
        state_words: Sequence[int],
        mask: int,
        overrides: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> Tuple[List[int], List[int]]:
        """Apply one packed vector: returns ``(po_words, next_state_words)``.
        Extraction masks on read, so the returned words are canonical."""
        values = self.evaluate(pi_words, state_words, mask, overrides)
        program = self.program
        po_words = [values[slot] & mask for slot in program.output_slots]
        next_state = [values[slot] & mask for slot in program.dff_d_slots]
        return po_words, next_state

    def run(
        self,
        vectors: Sequence[Sequence[int]],
        initial_state: Sequence[int],
        overrides: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> Tuple[List[List[int]], List[int]]:
        """Simulate a *single* pattern sequence on all bit positions at
        once (every bit position sees the same vectors; ``overrides``
        give each position its own machine).

        Returns ``(po_words_per_cycle, final_state_words)``.
        """
        mask = (1 << WORD_BITS) - 1
        state_words = [
            (mask if bit == ONE else 0) for bit in initial_state
        ]
        stepper = self.bind_overrides(overrides, mask)
        po_trace: List[List[int]] = []
        for vector in vectors:
            pi_words = [mask if bit == ONE else 0 for bit in vector]
            po_words, state_words = stepper.step(pi_words, state_words)
            po_trace.append(po_words)
        return po_trace, state_words
