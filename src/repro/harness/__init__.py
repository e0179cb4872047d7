"""Experiment harnesses regenerating the paper's Tables 1-8 and Figure 3.

Usage::

    from repro.harness import HarnessConfig, table2
    table, runs = table2.generate(HarnessConfig.smoke())
    print(table.render())

or from the command line: ``python -m repro run smoke``.
"""

from .config import HarnessConfig, sample_faults, select_target_faults
from .suite import (
    TABLE2_CIRCUITS,
    TABLE3_CIRCUITS,
    TABLE4_CIRCUITS,
    TABLE7_CIRCUIT,
    CircuitPair,
    build_pair,
    build_pairs,
    clear_caches,
    select_retiming,
    synthesize_named,
)
from .tables import Column, Table
from . import (
    figure3,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from .experiment import run_all
from .ledger import TaskRecord, load_records
from .reporting import Reporter
from .report import assemble_report
from .runner import RunResult, TaskSpec, build_task_graph, run_experiment

__all__ = [
    "CircuitPair",
    "Column",
    "HarnessConfig",
    "Reporter",
    "RunResult",
    "TaskRecord",
    "TaskSpec",
    "assemble_report",
    "build_task_graph",
    "load_records",
    "run_experiment",
    "TABLE2_CIRCUITS",
    "TABLE3_CIRCUITS",
    "TABLE4_CIRCUITS",
    "TABLE7_CIRCUIT",
    "Table",
    "build_pair",
    "build_pairs",
    "clear_caches",
    "figure3",
    "run_all",
    "sample_faults",
    "select_retiming",
    "select_target_faults",
    "synthesize_named",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
]
