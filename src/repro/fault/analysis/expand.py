"""Expand a reduced-target engine run back over the full fault universe.

The engines only ever see the analyzer's reduced representative list.
Tables and coverage reports, however, are specified over *all* faults —
and for the dominance level that gap cannot be closed by inference
(sequential self-masking, see :mod:`.dominance`).  ``expand_result``
closes it exactly:

* untestable classes get state ``untestable`` (proof already in hand);
* classes the engine targeted copy their representative's status and
  detecting-sequence index (equivalence is exact);
* every remaining class — dominance-dropped or sampled out of the
  engine's target list — is fault-simulated against the engine's own
  emitted test set, so its detected/untested status is *measured*, not
  assumed.

The expansion simulation runs on its own fault simulator, whose event
count is reported as ``sim.expansion_events``: it is bookkeeping cost,
not engine search effort, and must not inflate the engine's
``sim.events`` perf counter.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import TYPE_CHECKING, Dict

from ...circuit.netlist import Circuit
from ..model import Fault, FaultStatus, summarize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...atpg.result import AtpgResult
    from . import FaultAnalysis


def expand_result(
    engine_result: "AtpgResult",
    analysis: "FaultAnalysis",
    circuit: Circuit,
) -> "AtpgResult":
    """Lift ``engine_result`` over ``analysis``'s full fault universe.

    The returned result differs from ``engine_result`` in three fields:
    ``statuses`` range over every fault of the universe, in canonical
    order, so ``summary()`` and the coverage numbers the tables print
    are full-universe; ``fault_records`` carry selection provenance;
    and ``expansion_counters`` adds the full-universe ``cover.*``
    outcomes, ``sim.expansion_events`` and the analyzer's
    ``collapse.*`` yield to ``counters()``.  ``atpg.*`` counters keep
    their target-list meaning (they count the engine's records).
    """
    from ..simulator import FaultSimulator  # local: avoid import cycle

    targeted = engine_result.statuses
    untargeted = [
        rep
        for rep in analysis.equiv_representatives
        if rep not in targeted and rep not in analysis.untestable
    ]
    post_detected: Dict[Fault, int] = {}
    expansion_events = 0
    if untargeted and engine_result.test_set.sequences:
        simulator = FaultSimulator(circuit, faults=untargeted)
        report = simulator.run(engine_result.test_set.sequences)
        post_detected = report.detected
        expansion_events = simulator.events
    statuses: Dict[Fault, FaultStatus] = {}
    for fault in analysis.all_faults:
        rep = analysis.class_of[fault]
        if rep in analysis.untestable:
            statuses[fault] = FaultStatus(fault, state="untestable")
        elif rep in targeted:
            origin = targeted[rep]
            statuses[fault] = FaultStatus(
                fault, state=origin.state, detected_by=origin.detected_by
            )
        elif rep in post_detected:
            statuses[fault] = FaultStatus(
                fault, state="detected", detected_by=post_detected[rep]
            )
        else:
            statuses[fault] = FaultStatus(fault)
    # Selection provenance for the lifecycle records: which collapse
    # level produced the target list and how many universe faults each
    # targeted representative stands for.  Class sizes come from one
    # Counter pass over class_of (members_of scans the universe per
    # call — O(n^2) over a run's records).
    class_sizes = Counter(
        str(rep) for rep in analysis.class_of.values()
    )
    fault_records = [
        dict(
            record,
            collapse_level=analysis.level,
            class_size=class_sizes.get(str(record.get("fault")), 1),
        )
        for record in engine_result.fault_records
    ]
    summary = summarize(statuses.values())
    expansion_counters = {
        "cover.faults_total": summary.total,
        "cover.faults_detected": summary.detected,
        "cover.faults_redundant": summary.redundant,
        "cover.faults_aborted": summary.aborted,
        "cover.faults_untestable": summary.untestable,
        "sim.expansion_events": expansion_events,
    }
    expansion_counters.update(analysis.counters())
    return dataclasses.replace(
        engine_result,
        statuses=statuses,
        fault_records=fault_records,
        expansion_counters=expansion_counters,
    )
