"""Multi-level decomposition of two-level covers into gate networks.

After two-level minimization, SIS's synthesis scripts restructure the
logic: ``script.rugged`` optimizes area through algebraic factoring and
sharing, while ``script.delay`` builds faster, shallower structures with
less sharing.  This module provides both flavors:

* :func:`sop_to_network` — instantiate a cover as AND/OR logic with a
  bounded gate fanin, either as balanced trees (delay style) or chains
  (area style).
* :func:`extract_common_cubes` — iterative common-cube (kernel-lite)
  extraction that rewrites a set of covers to share multi-literal cubes
  through intermediate signals, the rugged-style area optimization.

Both are driven by :mod:`repro.synth.scripts`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.builder import CircuitBuilder
from ..circuit.gates import GateType
from .cube import Cover, Cube


@dataclasses.dataclass
class DecompositionStyle:
    """Knobs distinguishing the area and delay synthesis recipes."""

    max_fanin: int = 4
    balanced_trees: bool = True  # delay style; False = chains (area style)
    share_literal_inverters: bool = True

    @classmethod
    def delay(cls) -> "DecompositionStyle":
        return cls(max_fanin=4, balanced_trees=True)

    @classmethod
    def area(cls) -> "DecompositionStyle":
        return cls(max_fanin=4, balanced_trees=False)


class LiteralFactory:
    """Produces (and optionally shares) inverted input literals."""

    def __init__(
        self,
        builder: CircuitBuilder,
        input_names: Sequence[str],
        share: bool = True,
    ):
        self._builder = builder
        self._inputs = list(input_names)
        self._share = share
        self._inverters: Dict[str, str] = {}

    def literal(self, position: int, polarity: int) -> str:
        signal = self._inputs[position]
        if polarity == 1:
            return signal
        if self._share and signal in self._inverters:
            return self._inverters[signal]
        inverted = self._builder.not_(signal)
        if self._share:
            self._inverters[signal] = inverted
        return inverted


def build_gate_tree(
    builder: CircuitBuilder,
    gate: GateType,
    operands: Sequence[str],
    style: DecompositionStyle,
    name: Optional[str] = None,
) -> str:
    """Combine ``operands`` with ``gate`` respecting the fanin bound.

    Balanced mode minimizes depth (delay script); chain mode minimizes
    intermediate-node count variance and maximizes sharing opportunities
    downstream (area script).  A single operand is buffered only when a
    specific output ``name`` was requested.
    """
    if not operands:
        raise ValueError("cannot build a gate tree with no operands")
    if len(operands) == 1:
        if name is None:
            return operands[0]
        return builder.buf(operands[0], name=name)
    work = list(operands)
    if style.balanced_trees:
        while len(work) > style.max_fanin:
            grouped: List[str] = []
            for start in range(0, len(work), style.max_fanin):
                group = work[start : start + style.max_fanin]
                if len(group) == 1:
                    grouped.append(group[0])
                else:
                    grouped.append(builder.gate(gate, group))
            work = grouped
        return builder.gate(gate, work, name=name)
    # Chain: fold max_fanin-1 new operands into each successive gate.
    acc = work[0]
    index = 1
    while index < len(work):
        group = [acc] + work[index : index + style.max_fanin - 1]
        index += style.max_fanin - 1
        is_last = index >= len(work)
        acc = builder.gate(gate, group, name=name if is_last else None)
    return acc


def sop_to_network(
    builder: CircuitBuilder,
    cover: Cover,
    input_names: Sequence[str],
    style: DecompositionStyle,
    output_name: Optional[str] = None,
    literals: Optional[LiteralFactory] = None,
) -> str:
    """Instantiate ``cover`` as an AND-OR network; returns the output node.

    An empty cover becomes constant 0; a cover containing the universal
    cube becomes constant 1.
    """
    if literals is None:
        literals = LiteralFactory(
            builder, input_names, share=style.share_literal_inverters
        )
    if not cover.cubes:
        return builder.const0(name=output_name)
    if any(cube.mask == 0 for cube in cover.cubes):
        return builder.const1(name=output_name)

    product_nodes: List[str] = []
    for cube in cover.cubes:
        operand_names = [
            literals.literal(pos, pol) for pos, pol in cube.literals()
        ]
        product_nodes.append(
            build_gate_tree(builder, GateType.AND, operand_names, style)
        )
    return build_gate_tree(
        builder, GateType.OR, product_nodes, style, name=output_name
    )


# --------------------------------------------------------------------------
# Common-cube extraction (rugged-style sharing).
# --------------------------------------------------------------------------


@dataclasses.dataclass
class ExtractedCube:
    """A shared sub-product: the literal set and a fresh signal id."""

    literals: Tuple[Tuple[int, int], ...]  # ((position, polarity), ...)
    signal_index: int  # index into the extended input space


@dataclasses.dataclass
class ExtractionResult:
    """Covers rewritten over an extended input space.

    ``extracted[i]`` defines extended input ``original_width + i`` as the
    AND of its literals (which may themselves reference earlier
    extracted signals, enabling multi-level sharing).
    """

    covers: List[Cover]
    extracted: List[ExtractedCube]
    original_width: int


def extract_common_cubes(
    covers: Sequence[Cover],
    max_rounds: int = 20,
    min_occurrences: int = 2,
) -> ExtractionResult:
    """Iteratively extract the best-shared two-literal cube across covers.

    Classic greedy divisor extraction: each round scores every literal
    pair by ``(occurrences - 1)`` (the literals saved by sharing), picks
    the best, introduces a new column for it, and rewrites every cube
    containing the pair.  Rounds stop when nothing occurs at least
    ``min_occurrences`` times.
    """
    if not covers:
        return ExtractionResult(covers=[], extracted=[], original_width=0)
    original_width = covers[0].width
    for cover in covers:
        if cover.width != original_width:
            raise ValueError("all covers must share one input space")

    work = [list(c.cubes) for c in covers]
    width = original_width
    extracted: List[ExtractedCube] = []

    for _ in range(max_rounds):
        pair_counts: Dict[Tuple[Tuple[int, int], Tuple[int, int]], int] = {}
        for cubes in work:
            for cube in cubes:
                for a, b in itertools.combinations(cube.literals(), 2):
                    pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
        if not pair_counts:
            break
        best_pair, best_count = max(
            pair_counts.items(), key=lambda kv: (kv[1], kv[0])
        )
        if best_count < min_occurrences:
            break
        new_position = width
        extracted.append(
            ExtractedCube(literals=best_pair, signal_index=new_position)
        )
        width += 1
        (pos_a, pol_a), (pos_b, pol_b) = best_pair
        new_work: List[List[Cube]] = []
        for cubes in work:
            rewritten: List[Cube] = []
            for cube in cubes:
                widened = Cube(width=width, mask=cube.mask, value=cube.value)
                if (
                    cube.literal(pos_a) == pol_a
                    and cube.literal(pos_b) == pol_b
                ):
                    widened = widened.expand_position(pos_a)
                    widened = widened.expand_position(pos_b)
                    widened = widened.restrict_position(new_position, 1)
                rewritten.append(widened)
            new_work.append(rewritten)
        work = new_work

    return ExtractionResult(
        covers=[Cover(width, cubes) for cubes in work],
        extracted=extracted,
        original_width=original_width,
    )


def instantiate_extraction(
    builder: CircuitBuilder,
    result: ExtractionResult,
    input_names: Sequence[str],
    style: DecompositionStyle,
    output_names: Sequence[Optional[str]],
) -> List[str]:
    """Build the extracted multi-level network; returns output node names.

    Extended inputs (the shared cubes) are instantiated first, in
    extraction order, then each cover is instantiated over the extended
    literal space.
    """
    if len(output_names) != len(result.covers):
        raise ValueError("need one output name per cover")
    extended_names = list(input_names)
    literals = LiteralFactory(
        builder, extended_names, share=style.share_literal_inverters
    )
    for item in result.extracted:
        operand_names = [
            literals.literal(pos, pol) for pos, pol in item.literals
        ]
        node = build_gate_tree(builder, GateType.AND, operand_names, style)
        extended_names.append(node)
        literals._inputs.append(node)
    outputs = []
    for cover, name in zip(result.covers, output_names):
        outputs.append(
            sop_to_network(
                builder,
                cover,
                extended_names,
                style,
                output_name=name,
                literals=literals,
            )
        )
    return outputs
