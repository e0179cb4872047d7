"""Stuck-at fault model, static fault analysis (equivalence +
dominance/checkpoint collapsing, provable-untestable pruning), and
lane-parallel sequential fault simulation (PROOFS substitute)."""

from .model import (
    CoverageSummary,
    Fault,
    FaultStatus,
    full_fault_list,
    summarize,
)
from .collapse import CollapseReport, collapse_faults
from .simulator import FaultSimReport, FaultSimulator, TestSequence
from .analysis import (
    FaultAnalysis,
    analyze_faults,
    analyze_faults_cached,
    clear_analysis_cache,
    expand_result,
)

__all__ = [
    "CollapseReport",
    "CoverageSummary",
    "Fault",
    "FaultAnalysis",
    "FaultSimReport",
    "FaultSimulator",
    "FaultStatus",
    "TestSequence",
    "analyze_faults",
    "analyze_faults_cached",
    "clear_analysis_cache",
    "collapse_faults",
    "expand_result",
    "full_fault_list",
    "summarize",
]
