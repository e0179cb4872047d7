"""Structural sequential ATPG engines.

Three engines mirror the paper's three tools:

* :class:`HitecEngine` — targeted PODEM over time frames with backward
  state justification (HITEC stand-in, the primary engine);
* :class:`SestEngine` — the same search with dynamic illegal-state
  learning (Sequential EST stand-in);
* :class:`SimBasedEngine` — simulation-based sequence breeding
  (Attest/TDX stand-in).

All engines share :class:`EffortBudget` limits, emit :class:`AtpgResult`
with the paper's %FC/%FE accounting, Figure-3 checkpoints, and the
state-traversal instrumentation behind Tables 6 and 8.  They satisfy
the :class:`AtpgEngine` protocol and are constructible by name through
:func:`repro.atpg.registry.get_engine`.
"""

from typing import Optional, Protocol, Sequence, runtime_checkable

from ..fault.model import Fault
from .frames import UnrolledModel, Variable
from .learning import IllegalStateCache, LearningStats, cube_implies, cube_key
from .podem import FaultPodem, JustifyPodem, SearchMeter, Solution
from .result import (
    AtpgResult,
    Checkpoint,
    EffortBudget,
    FaultBook,
    Stopwatch,
    TestSet,
    WorkClock,
)
from .hitec import HitecEngine, Justifier
from .sest import SestEngine
from .simbased import SimBasedEngine, SimBasedOptions
from .registry import ENGINES, EngineSpec, engine_names, get_engine


@runtime_checkable
class AtpgEngine(Protocol):
    """What every test-generation engine in this tree looks like.

    ``name`` identifies the engine family (a registry key) and ``run``
    produces the paper-accounting result, whose ``counters()`` carry
    the run's effort and outcome counts.
    """

    name: str

    def run(self, faults: Optional[Sequence[Fault]] = None) -> AtpgResult:
        ...

__all__ = [
    "AtpgEngine",
    "AtpgResult",
    "Checkpoint",
    "EffortBudget",
    "ENGINES",
    "FaultBook",
    "EngineSpec",
    "FaultPodem",
    "HitecEngine",
    "IllegalStateCache",
    "Justifier",
    "JustifyPodem",
    "LearningStats",
    "SearchMeter",
    "SestEngine",
    "SimBasedEngine",
    "SimBasedOptions",
    "Solution",
    "Stopwatch",
    "WorkClock",
    "TestSet",
    "UnrolledModel",
    "Variable",
    "cube_implies",
    "cube_key",
    "engine_names",
    "get_engine",
]
