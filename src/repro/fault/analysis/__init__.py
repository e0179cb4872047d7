"""Static fault analysis: what can be decided before any ATPG runs.

The analyzer turns the full stem-fault universe of a circuit into a
reduced deterministic target list plus enough bookkeeping to expand any
result back over *all* faults:

1. **equivalence collapsing** — the union-find of
   :mod:`repro.fault.collapse`; exact in both directions (equivalent
   faults share every test, so a representative's outcome transfers to
   its whole class, detection index included);
2. **provable-untestable pruning** — constant-net (ternary fixpoint)
   and unobservability proofs (:mod:`.untestable`) discharge whole
   classes with state ``untestable`` at zero search cost;
3. **dominance / checkpoint reduction** (level
   ``equiv+dom+checkpoint``) — fanout-free-region dominance
   (:mod:`.dominance`) removes gate-output classes whose excitation and
   propagation conditions are subsumed by a kept interior-line fault;
   transitively the kept targets bottom out at the checkpoints (PIs,
   fanout stems, DFF outputs).

Dominance is a *targeting* optimization only: dropped classes are never
assumed detected — :mod:`.expand` fault-simulates them against the
emitted test set, so coverage/detection reports over the full universe
stay exact (see the sequential caveat in :mod:`.dominance`).

``analyze_faults_cached`` memoizes per circuit object so the harness
runs the analysis once per circuit per level; the cost and yield land
in ``collapse.*`` counters and a ``collapse.analyze`` trace span.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple

from ...circuit.netlist import Circuit
from ...errors import FaultError
from ...obs import Observability
from ..collapse import CollapseReport, collapse_faults
from ..model import Fault, full_fault_list
from .dominance import checkpoint_nodes, dominance_drops, fanout_free_regions
from .untestable import untestable_faults

#: Equivalence classes only (plus untestable pruning).
LEVEL_EQUIV = "equiv"
#: Equivalence + dominance/checkpoint reduction (the default).
LEVEL_FULL = "equiv+dom+checkpoint"
LEVELS = (LEVEL_EQUIV, LEVEL_FULL)


@dataclasses.dataclass
class FaultAnalysis:
    """Everything the static pass decided about one circuit's faults."""

    circuit_name: str
    level: str
    #: The full universe, in the canonical sorted order of
    #: :func:`repro.fault.model.full_fault_list`.
    all_faults: List[Fault]
    #: Every fault -> its equivalence-class representative.
    class_of: Dict[Fault, Fault]
    #: Equivalence representatives (one per class, universe order).
    equiv_representatives: List[Fault]
    #: The reduced ATPG target list (equiv reps minus untestable and
    #: dominance-dropped classes), in universe order.
    representatives: List[Fault]
    #: Untestable class representatives -> one-line proof.
    untestable: Dict[Fault, str]
    #: Dominance-dropped class representatives -> kept witness fault.
    dominated: Dict[Fault, Fault]
    #: PIs + fanout stems + DFF outputs.
    checkpoints: FrozenSet[str]

    @property
    def total_faults(self) -> int:
        return len(self.all_faults)

    @property
    def collapse_ratio(self) -> float:
        """Targets / universe (1.0 = nothing collapsed)."""
        if not self.all_faults:
            return 1.0
        return len(self.representatives) / len(self.all_faults)

    @property
    def checkpoint_ratio(self) -> float:
        """Checkpoints / fault sites (nodes)."""
        sites = len(self.all_faults) // 2
        if sites == 0:
            return 1.0
        return len(self.checkpoints) / sites

    def members_of(self, representative: Fault) -> List[Fault]:
        """All universe faults in one equivalence class."""
        return [
            fault
            for fault in self.all_faults
            if self.class_of[fault] == representative
        ]

    def expand_detected(
        self, detected_by_rep: Dict[Fault, int]
    ) -> Tuple[Dict[Fault, int], List[Fault]]:
        """Lift per-representative detection over the full universe.

        Returns ``(detected, undetected)`` in universe order; a class
        member inherits its representative's first-detecting sequence
        index exactly (equivalent faults share every test).
        """
        detected: Dict[Fault, int] = {}
        undetected: List[Fault] = []
        for fault in self.all_faults:
            rep = self.class_of[fault]
            if rep in detected_by_rep:
                detected[fault] = detected_by_rep[rep]
            else:
                undetected.append(fault)
        return detected, undetected

    def counters(self) -> Dict[str, int]:
        """The deterministic ``collapse.*`` counter block."""
        return {
            "collapse.faults_total": len(self.all_faults),
            "collapse.equiv_classes": len(self.equiv_representatives),
            "collapse.untestable_classes": len(self.untestable),
            "collapse.dominated_classes": len(self.dominated),
            "collapse.representatives": len(self.representatives),
            "collapse.checkpoints": len(self.checkpoints),
        }


def analyze_faults(
    circuit: Circuit,
    level: str = LEVEL_FULL,
    obs: Optional[Observability] = None,
) -> FaultAnalysis:
    """Run the full static pipeline over one circuit."""
    if level not in LEVELS:
        raise FaultError(
            f"unknown collapse level {level!r}; expected one of {LEVELS}"
        )
    obs = obs if obs is not None else Observability()
    with obs.trace.span(
        "collapse.analyze", circuit=circuit.name, level=level
    ):
        equiv: CollapseReport = collapse_faults(circuit)
        untestable_classes: Dict[Fault, str] = {}
        for fault, reason in untestable_faults(circuit).items():
            rep = equiv.class_of[fault]
            # Equivalent faults share every test: one member's empty
            # test set empties the whole class.
            untestable_classes.setdefault(rep, reason)
        dominated: Dict[Fault, Fault] = {}
        if level == LEVEL_FULL:
            for dropped, witness in dominance_drops(circuit).items():
                rep = equiv.class_of[dropped]
                if rep in untestable_classes:
                    continue  # already pruned outright
                if equiv.class_of[witness] == rep:
                    continue  # witness collapsed into the same class
                dominated.setdefault(rep, witness)
        representatives = [
            rep
            for rep in equiv.representatives
            if rep not in untestable_classes and rep not in dominated
        ]
        analysis = FaultAnalysis(
            circuit_name=circuit.name,
            level=level,
            all_faults=full_fault_list(circuit),
            class_of=equiv.class_of,
            equiv_representatives=list(equiv.representatives),
            representatives=representatives,
            untestable=untestable_classes,
            dominated=dominated,
            checkpoints=checkpoint_nodes(circuit),
        )
    return analysis


# One analysis per live circuit object per level.  Keyed weakly by the
# circuit itself (identity), so a re-synthesized circuit never reuses a
# stale analysis and dropped circuits free their entry.
_CACHE: "weakref.WeakKeyDictionary[Circuit, Dict[str, FaultAnalysis]]" = (
    weakref.WeakKeyDictionary()
)


def analyze_faults_cached(
    circuit: Circuit,
    level: str = LEVEL_FULL,
    obs: Optional[Observability] = None,
) -> FaultAnalysis:
    """Suite-level memoized :func:`analyze_faults`.

    Every harness consumer (ATPG tables, Figure 3, expansion) shares
    one analysis per circuit per level.  A cache hit re-emits the same
    ``collapse.analyze`` span a fresh computation would: whether *this*
    process computed the analysis is an execution accident (worker
    processes have cold caches), and per-task traces must be
    byte-identical at every ``--jobs`` level.
    """
    per_circuit = _CACHE.get(circuit)
    if per_circuit is not None and level in per_circuit:
        analysis = per_circuit[level]
        if obs is not None:
            with obs.trace.span(
                "collapse.analyze", circuit=circuit.name, level=level
            ):
                pass
        return analysis
    analysis = analyze_faults(circuit, level=level, obs=obs)
    if per_circuit is None:
        per_circuit = {}
        _CACHE[circuit] = per_circuit
    per_circuit[level] = analysis
    return analysis


def clear_analysis_cache() -> None:
    """Drop all memoized analyses (tests and suite cache resets)."""
    _CACHE.clear()


from .expand import expand_result  # noqa: E402  (cycle-free tail import)

__all__ = [
    "LEVELS",
    "LEVEL_EQUIV",
    "LEVEL_FULL",
    "FaultAnalysis",
    "analyze_faults",
    "analyze_faults_cached",
    "checkpoint_nodes",
    "clear_analysis_cache",
    "dominance_drops",
    "expand_result",
    "fanout_free_regions",
    "untestable_faults",
]
