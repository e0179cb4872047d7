"""Fault-lifecycle taxonomy: abort reasons and detection provenance.

Every per-fault record an engine's fault book
(:class:`repro.atpg.result.FaultBook`) closes carries one
``PROV_*`` provenance, and every aborted one an ``ABORT_*`` reason.
The constants live here — not in ``repro.atpg`` — because both the
engines and the read-time report layer consume them, and obs never
imports atpg.
"""

# -- abort-reason taxonomy ---------------------------------------------------
# These split the engines' single opaque ``aborted`` state (which stays
# the rolled-up legacy state in every table).

#: The per-fault backtrack budget cut the search.
ABORT_BACKTRACK_LIMIT = "backtrack-limit"
#: The forward window hit ``max_frames`` with search space left open.
ABORT_FRAME_LIMIT = "frame-limit"
#: A per-fault or per-circuit time budget expired.
ABORT_TIME_BUDGET = "time-budget"
#: A simulation-based run stalled (no new detections) with faults open.
ABORT_STALL = "stall"

ABORT_REASONS = (
    ABORT_BACKTRACK_LIMIT,
    ABORT_FRAME_LIMIT,
    ABORT_TIME_BUDGET,
    ABORT_STALL,
)

# -- detection provenance ----------------------------------------------------

#: The deterministic search emitted this fault's own test.
PROV_TARGETED = "targeted"
#: Dropped by fault-simulating another fault's fresh test.
PROV_FAULT_DROP = "fault-drop"
#: Detected by the random test generation phase.
PROV_RANDOM_PHASE = "random-phase"
#: Detected by a simulation-based engine's bred sequence batch.
PROV_BREEDING = "breeding"

#: Provenances that count as *incidental* (the fault was never the
#: search target of the sequence that detected it).
INCIDENTAL_PROVENANCES = (PROV_FAULT_DROP, PROV_RANDOM_PHASE, PROV_BREEDING)
