"""Structural and state-space analyses: sequential depth, cycle
structure, valid states / density of encoding, traversal reports."""

from .seqdepth import (
    DepthReport,
    max_sequential_depth,
    sequential_depth_per_output,
    sequential_depth_report,
)
from .cycles import (
    CycleReport,
    count_dff_cycles,
    count_path_cycles,
    cycle_dff_sets,
)
from .density import (
    ReachabilityReport,
    ReachableStates,
    density_of_encoding,
    explicit_valid_states,
    reachability_report,
    reachable_states,
)
from .correlation import (
    density_cost_correlation,
    pearson,
    ranks,
    spearman,
)
from .testability import (
    INFINITY,
    ScoapReport,
    scoap,
    testability_summary,
)
from .traversal import (
    CrossSimulationReport,
    TraversalReport,
    simulate_test_set_on,
    traversal_report,
)

__all__ = [
    "CrossSimulationReport",
    "CycleReport",
    "ReachabilityReport",
    "ReachableStates",
    "TraversalReport",
    "DepthReport",
    "count_dff_cycles",
    "count_path_cycles",
    "cycle_dff_sets",
    "density_of_encoding",
    "explicit_valid_states",
    "max_sequential_depth",
    "sequential_depth_report",
    "reachability_report",
    "reachable_states",
    "sequential_depth_per_output",
    "simulate_test_set_on",
    "traversal_report",
    "INFINITY",
    "ScoapReport",
    "scoap",
    "spearman",
    "pearson",
    "ranks",
    "density_cost_correlation",
    "testability_summary",
]
