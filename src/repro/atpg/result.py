"""Result and budget types shared by every ATPG engine.

The paper's accounting is reproduced exactly:

* **fault coverage** (%FC) — detected / total faults;
* **fault efficiency** (%FE) — (detected + proven redundant) / total;
* **CPU seconds** — engine process time; absolute values are machine
  dependent, the harness reports the retimed/original *ratio* like the
  paper's ``CPU ratio`` column;
* **checkpoints** — (cpu_seconds, fault efficiency so far) samples taken
  after every fault, which regenerate Figure 3's FE-vs-CPU curves.

Engines never run unbounded: an :class:`EffortBudget` caps backtracks,
time-frame window, justification depth and wall clock.  A fault whose
search hits a budget is *aborted* — it counts against both coverage and
efficiency, exactly as the paper's 12-hour manual-halt rule did.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import Counter as Tally
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..fault.model import CoverageSummary, Fault, FaultStatus, summarize
from ..obs import annotate
from ..obs.coverage import PROV_TARGETED
from ..obs.coverage.report import lifecycle_counter_block
from ..obs.search import SearchObserver


@dataclasses.dataclass
class EffortBudget:
    """Search-effort limits for one ATPG run."""

    max_backtracks: int = 1200  # PODEM backtracks per fault (both phases)
    max_frames: int = 8  # forward (propagation) window, frames
    max_justify_depth: int = 24  # backward justification recursion depth
    max_preimages: int = 6  # preimage solutions explored per state cube
    per_fault_seconds: float = 5.0  # wall clock per fault
    total_seconds: float = 1800.0  # wall clock per circuit
    # Random test generation (RTG) phase before deterministic search:
    # cheap detection of the easy faults plus the state-knowledge seed
    # every classical flow starts from.
    random_sequences: int = 64
    random_length: int = 40
    # Replace the process-time stopwatch with a work-counting virtual
    # clock.  Engine results (including every reported cpu_seconds)
    # then depend only on the inputs and seeds, never on machine load —
    # required for bit-exact serial-vs-parallel harness equivalence.
    deterministic_clock: bool = False

    @classmethod
    def quick(cls) -> "EffortBudget":
        """Small budget for tests and smoke runs."""
        return cls(
            max_backtracks=300,
            max_frames=5,
            max_justify_depth=12,
            max_preimages=4,
            per_fault_seconds=1.0,
            total_seconds=120.0,
            random_sequences=24,
            random_length=30,
        )

    @classmethod
    def paper(cls) -> "EffortBudget":
        """The default for the table-regeneration harness."""
        return cls()

    def scaled(self, factor: float) -> "EffortBudget":
        """A proportionally smaller (or larger) budget.

        The experiment runner retries timed-out cells with
        ``budget.scaled(0.5)`` so a pathological circuit converges to an
        abortable effort level instead of stalling the whole run.
        Integer knobs keep a floor of 1 so a scaled budget still makes
        progress.
        """
        def _units(value: int) -> int:
            return max(1, int(value * factor))

        return dataclasses.replace(
            self,
            max_backtracks=_units(self.max_backtracks),
            max_frames=_units(self.max_frames),
            max_justify_depth=_units(self.max_justify_depth),
            max_preimages=_units(self.max_preimages),
            per_fault_seconds=max(1e-3, self.per_fault_seconds * factor),
            total_seconds=max(1e-3, self.total_seconds * factor),
            random_sequences=_units(self.random_sequences),
            random_length=_units(self.random_length),
        )


@dataclasses.dataclass
class Checkpoint:
    """One Figure-3 sample."""

    cpu_seconds: float
    detected: int
    redundant: int
    processed: int
    total: int

    @property
    def fault_efficiency(self) -> float:
        if self.total == 0:
            return 100.0
        return 100.0 * (self.detected + self.redundant) / self.total

    @property
    def fault_coverage(self) -> float:
        if self.total == 0:
            return 100.0
        return 100.0 * self.detected / self.total


@dataclasses.dataclass
class TestSet:
    """The sequences an engine emitted; each applies from reset."""

    __test__ = False  # not a pytest test class, despite the name

    sequences: List[List[List[int]]] = dataclasses.field(default_factory=list)

    def add(self, sequence: Sequence[Sequence[int]]) -> None:
        self.sequences.append([list(v) for v in sequence])

    def total_vectors(self) -> int:
        return sum(len(s) for s in self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)


@dataclasses.dataclass
class AtpgResult:
    """Everything a table needs about one engine × circuit run."""

    circuit_name: str
    engine: str
    statuses: Dict[Fault, FaultStatus]
    test_set: TestSet
    cpu_seconds: float
    checkpoints: List[Checkpoint]
    states_traversed: Set[Tuple[int, ...]]
    # Fully-specified states the backward justification examined (a
    # superset indicator of wasted work in invalid state space; the
    # traversed set above counts states the good machine actually
    # visited, the paper's Table 6/8 semantics).
    states_examined: Set[Tuple[int, ...]] = dataclasses.field(
        default_factory=set
    )
    # Machine-step events the fault simulator processed on this run's
    # behalf (random phase, validation, fault dropping).
    sim_events: int = 0
    # ``search.*`` tallies from the search-state observatory.
    search_counters: Dict[str, int] = dataclasses.field(
        default_factory=dict
    )
    # The run's :class:`FaultBook` records, in resolution order: one
    # dict per targeted fault (outcome, provenance, abort reason,
    # effort).  ``atpg.faults_*``, backtracks and frames derive from
    # them.
    fault_records: List[Dict[str, Any]] = dataclasses.field(
        default_factory=list
    )
    # Counters of a full-universe expansion (``cover.*``,
    # ``sim.expansion_events``, ``collapse.*``; see
    # repro.fault.analysis.expand_result), merged into counters().
    expansion_counters: Dict[str, float] = dataclasses.field(
        default_factory=dict
    )

    @property
    def backtracks(self) -> int:
        """PODEM backtracks, summed over the fault records."""
        return sum(record["backtracks"] for record in self.fault_records)

    @property
    def frames_expanded(self) -> int:
        """Time-frame windows the deterministic search expanded."""
        return sum(record["frames"] for record in self.fault_records)

    def summary(self) -> CoverageSummary:
        return summarize(self.statuses.values())

    def counters(self) -> Dict[str, float]:
        """Flat JSON-able effort/outcome counters for the run ledger.

        Keys follow the obs dotted naming convention (see DESIGN.md
        "Counter naming"); ledger rows store them verbatim.  The
        ``atpg.faults_*`` outcomes count the engine's own records, so
        they keep their target-list meaning after an expansion widens
        ``statuses`` to the full fault universe.
        """
        outcomes = Tally(record["outcome"] for record in self.fault_records)
        counters: Dict[str, float] = {
            "atpg.faults_total": len(self.fault_records),
            "atpg.faults_detected": outcomes["detected"],
            "atpg.faults_redundant": outcomes["redundant"],
            "atpg.faults_aborted": outcomes["aborted"],
            "atpg.backtracks": self.backtracks,
            "atpg.frames_expanded": self.frames_expanded,
            "atpg.states_traversed": len(self.states_traversed),
            "atpg.states_examined": len(self.states_examined),
            "atpg.test_sequences": len(self.test_set),
            "atpg.test_vectors": self.test_set.total_vectors(),
            "atpg.cpu_seconds": self.cpu_seconds,
            "sim.events": self.sim_events,
        }
        counters.update(
            (key, self.search_counters[key])
            for key in sorted(self.search_counters)
        )
        counters.update(lifecycle_counter_block(self.fault_records))
        counters.update(self.expansion_counters)
        return counters

    @property
    def fault_coverage(self) -> float:
        return self.summary().fault_coverage

    @property
    def fault_efficiency(self) -> float:
        return self.summary().fault_efficiency

    def __str__(self) -> str:
        return (
            f"{self.engine} on {self.circuit_name}: {self.summary()} in "
            f"{self.cpu_seconds:.1f}s, {len(self.test_set)} sequences, "
            f"{len(self.states_traversed)} states traversed"
        )


class WorkClock:
    """Deterministic virtual clock: time advances by charged work units.

    One unit is a fixed (arbitrary) slice of "CPU"; engines charge the
    clock at deterministic points — per backtrack, per expanded frame
    window, per simulated sequence — so the resulting pseudo-seconds are
    a pure function of the search trajectory.  Two runs with the same
    circuit, faults and seeds therefore report identical cpu_seconds and
    identical budget cuts, on any machine and in any process.
    """

    def __init__(self, seconds_per_unit: float = 1e-4):
        self.seconds_per_unit = seconds_per_unit
        self._units = 0

    def charge(self, units: int = 1) -> None:
        self._units += units

    def seconds(self) -> float:
        return self._units * self.seconds_per_unit


class Stopwatch:
    """Deadline tracking for budget enforcement.

    Measures process CPU time by default; pass a :class:`WorkClock` to
    run against deterministic virtual time instead (the clock is shared
    between the per-circuit and per-fault watches of one engine run).
    """

    def __init__(self, limit_seconds: float, clock: Optional[WorkClock] = None):
        self.clock = clock
        self._start = self._now()
        self._limit = limit_seconds

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock.seconds()
        return time.process_time()

    def charge(self, units: int = 1) -> None:
        """Advance virtual time (no-op under the real clock)."""
        if self.clock is not None:
            self.clock.charge(units)

    def elapsed(self) -> float:
        return self._now() - self._start

    def expired(self) -> bool:
        return self.elapsed() >= self._limit


class FaultBook:
    """One engine run's fault records: the single place outcomes live.

    Every fault on the run's target list closes exactly one record —
    detected by its own search or incidentally by another sequence
    (fault dropping, the random phase, bred batches), proven
    redundant, or aborted with an ``ABORT_*`` taxonomy reason:

    ================  ==================================================
    ``fault``         the fault, as ``repro.fault.model.Fault`` spells it
    ``order``         resolution index within the run (0-based)
    ``outcome``       ``detected`` | ``redundant`` | ``aborted``
    ``provenance``    how it resolved (``repro.obs.coverage`` ``PROV_*``)
    ``abort_reason``  the ``ABORT_*`` taxonomy entry, or None
    ``detected_by``   detecting test-sequence index, or None
    ``backtracks``    PODEM backtracks of the fault's own search
    ``frames``        time-frame windows its search expanded
    ``sim_events``    fault-simulator machine-steps inside its scope
    ``cpu_seconds``   run-clock seconds when the record closed
    ================  ==================================================

    Statuses, checkpoints, the engine's outcome and effort counters and
    the ``lifecycle.*`` counters are all read from these records.
    ``watch`` stamps every record, ``simulator`` is the fault simulator
    whose ``events`` the scopes mark, and ``search`` the run's
    search-state observer, whose tally the scopes mark.  Record order
    is resolution order, and every timestamp comes from the run's
    watch, so records are a pure function of the search trajectory
    under a WorkClock.
    """

    def __init__(
        self,
        faults: Sequence[Fault],
        watch: Stopwatch,
        simulator,
        search: SearchObserver,
    ):
        self._faults = list(dict.fromkeys(faults))
        self._watch = watch
        self._simulator = simulator
        self._search = search
        self._records: List[Dict[str, Any]] = []
        self._record_of: Dict[Fault, Dict[str, Any]] = {}
        self._outcomes: Tally = Tally()
        self._pending: Optional[Fault] = None

    # -- queries ------------------------------------------------------------

    def is_open(self, fault: Fault) -> bool:
        """True while ``fault`` has no record and is not under search."""
        return fault not in self._record_of and fault != self._pending

    def open_faults(self) -> List[Fault]:
        """Faults still open, in target-list order."""
        return [fault for fault in self._faults if self.is_open(fault)]

    def checkpoint(self) -> Checkpoint:
        """The Figure-3 sample of the records closed so far."""
        return Checkpoint(
            cpu_seconds=self._watch.elapsed(),
            detected=self._outcomes["detected"],
            redundant=self._outcomes["redundant"],
            processed=len(self._records),
            total=len(self._faults),
        )

    def statuses(self) -> Dict[Fault, FaultStatus]:
        """Per-fault statuses, in target-list order."""
        statuses: Dict[Fault, FaultStatus] = {}
        for fault in self._faults:
            record = self._record_of.get(fault)
            if record is None:
                statuses[fault] = FaultStatus(fault)
            elif record["detected_by"] is None:
                statuses[fault] = FaultStatus(fault, state=record["outcome"])
            else:
                statuses[fault] = FaultStatus(
                    fault, state="detected", detected_by=record["detected_by"]
                )
        return statuses

    def records(self) -> List[Dict[str, Any]]:
        """The run's records, in resolution order."""
        return list(self._records)

    # -- resolutions --------------------------------------------------------

    def detected(self, fault: Fault, provenance: str, sequence: int) -> None:
        """``fault`` detected by test ``sequence``, which was not
        searching for it; effort is charged to that sequence's own
        fault (or phase), never here."""
        self._close(fault, "detected", provenance, detected_by=sequence)

    def abort(self, fault: Fault, reason: str) -> None:
        """``fault`` aborted without any search (the budget was gone
        before its turn, or it was left open at the end of a run)."""
        self._close(fault, "aborted", PROV_TARGETED, abort_reason=reason)

    @contextlib.contextmanager
    def target(self, fault: Fault, trace) -> Iterator["FaultScope"]:
        """Search scope of one targeted fault: an ``atpg.fault`` span
        annotated with the scope's valid/invalid examine events.  The
        returned scope stays pending — its fault neither open nor
        closed — until :meth:`FaultScope.close`, so a detecting fault
        can fault-drop first and still precede the faults it dropped.
        """
        scope = FaultScope(self, fault)
        with trace.span("atpg.fault", fault=str(fault)) as span:
            yield scope
            valid, invalid = scope.dwell()
            annotate(span, search_valid=valid, search_invalid=invalid)

    def _close(
        self,
        fault: Fault,
        outcome: str,
        provenance: str,
        *,
        abort_reason: Optional[str] = None,
        detected_by: Optional[int] = None,
        backtracks: int = 0,
        frames: int = 0,
        sim_events: int = 0,
    ) -> None:
        record = {
            "fault": str(fault),
            "order": len(self._records),
            "outcome": outcome,
            "provenance": provenance,
            "abort_reason": abort_reason,
            "detected_by": detected_by,
            "backtracks": int(backtracks),
            "frames": int(frames),
            "sim_events": int(sim_events),
            "cpu_seconds": float(self._watch.elapsed()),
        }
        self._records.append(record)
        self._record_of[fault] = record
        self._outcomes[outcome] += 1


class FaultScope:
    """One targeted fault between :meth:`FaultBook.target` and its
    record: holds the simulator-event and examine-event marks."""

    def __init__(self, book: FaultBook, fault: Fault):
        book._pending = fault
        self._book = book
        self.fault = fault
        self._sim_mark = book._simulator.events
        tally = book._search.tally
        self._dwell_marks = (tally.valid_events, tally.invalid_events)

    def dwell(self) -> Tuple[int, int]:
        """(valid, invalid) examine events since the scope opened."""
        tally = self._book._search.tally
        return (
            tally.valid_events - self._dwell_marks[0],
            tally.invalid_events - self._dwell_marks[1],
        )

    def close(
        self,
        outcome: str,
        backtracks: int,
        frames: int,
        *,
        abort_reason: Optional[str] = None,
        detected_by: Optional[int] = None,
    ) -> None:
        """Close the fault's record with its search effort; simulator
        events count from the scope's start to now."""
        book = self._book
        book._pending = None
        book._close(
            self.fault,
            outcome,
            PROV_TARGETED,
            abort_reason=abort_reason if outcome == "aborted" else None,
            detected_by=detected_by if outcome == "detected" else None,
            backtracks=backtracks,
            frames=frames,
            sim_events=max(0, book._simulator.events - self._sim_mark),
        )
