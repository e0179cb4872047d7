"""Finite-state-machine substrate: STG representation, KISS2 I/O, the
benchmark suite, state minimization and state assignment."""

from .machine import Fsm, Transition
from .kiss import read_kiss, write_kiss
from .generate import GeneratorSpec, generate_fsm, generate_minimal_fsm
from .benchmarks import (
    PAPER_FSMS,
    BenchmarkSpec,
    benchmark_fsm,
    benchmark_names,
    table1_rows,
)
from .minimize import MinimizationReport, minimize_fsm
from .encode import Encoding, EncodingAlgorithm, encode_fsm

__all__ = [
    "BenchmarkSpec",
    "Encoding",
    "EncodingAlgorithm",
    "Fsm",
    "GeneratorSpec",
    "MinimizationReport",
    "PAPER_FSMS",
    "Transition",
    "benchmark_fsm",
    "benchmark_names",
    "encode_fsm",
    "generate_fsm",
    "generate_minimal_fsm",
    "minimize_fsm",
    "read_kiss",
    "table1_rows",
    "write_kiss",
]
