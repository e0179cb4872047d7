"""Gate library: timing and area models.

Stand-in for the reduced ``mcnc.genlib`` library the paper mapped onto
("modified to contain only those gate types recognized by the sequential
ATPGs").  Delay and area follow the usual genlib convention of a base
cost plus a per-extra-input increment; absolute values are arbitrary
nanoseconds/units — the experiments only ever compare delays and areas
of circuits mapped onto the *same* library, exactly as the paper only
compares cycle times within one technology (Table 7).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit, NodeKind
from ..errors import SynthesisError


@dataclasses.dataclass(frozen=True)
class GateSpec:
    """Timing/area model of one gate family."""

    base_delay: float  # delay at minimum fanin (ns)
    delay_per_input: float  # added per input beyond the minimum (ns)
    base_area: float
    area_per_input: float
    max_fanin: int


_DEFAULT_SPECS: Dict[GateType, GateSpec] = {
    GateType.BUF: GateSpec(1.0, 0.0, 1.0, 0.0, 1),
    GateType.NOT: GateSpec(1.0, 0.0, 1.0, 0.0, 1),
    GateType.AND: GateSpec(2.0, 0.5, 2.0, 1.0, 4),
    GateType.OR: GateSpec(2.0, 0.5, 2.0, 1.0, 4),
    GateType.NAND: GateSpec(1.5, 0.5, 1.5, 1.0, 4),
    GateType.NOR: GateSpec(1.5, 0.5, 1.5, 1.0, 4),
    GateType.XOR: GateSpec(3.0, 1.0, 4.0, 2.0, 3),
    GateType.XNOR: GateSpec(3.0, 1.0, 4.0, 2.0, 3),
    GateType.CONST0: GateSpec(0.0, 0.0, 0.0, 0.0, 0),
    GateType.CONST1: GateSpec(0.0, 0.0, 0.0, 0.0, 0),
}

DFF_AREA = 6.0
DFF_SETUP = 0.5  # included in path delay into a register
DFF_CLOCK_TO_Q = 0.5  # included in path delay out of a register


class GateLibrary:
    """A delay/area model over the primitive gate set."""

    def __init__(self, specs: Dict[GateType, GateSpec] = None):
        self._specs = dict(_DEFAULT_SPECS)
        if specs:
            self._specs.update(specs)

    def spec(self, gate: GateType) -> GateSpec:
        try:
            return self._specs[gate]
        except KeyError:
            raise SynthesisError(f"library has no spec for {gate!r}") from None

    def delay(self, gate: GateType, fanin_count: int) -> float:
        spec = self.spec(gate)
        extra = max(0, fanin_count - max(1, gate.min_fanin))
        return spec.base_delay + extra * spec.delay_per_input

    def area(self, gate: GateType, fanin_count: int) -> float:
        spec = self.spec(gate)
        extra = max(0, fanin_count - max(1, gate.min_fanin))
        return spec.base_area + extra * spec.area_per_input

    def max_fanin(self, gate: GateType) -> int:
        return self.spec(gate).max_fanin

    # -- circuit-level metrics ------------------------------------------------

    def circuit_area(self, circuit: Circuit) -> float:
        total = 0.0
        for node in circuit.nodes():
            if node.kind is NodeKind.GATE:
                total += self.area(node.gate, len(node.fanin))
            elif node.kind is NodeKind.DFF:
                total += DFF_AREA
        return total


DEFAULT_LIBRARY = GateLibrary()
