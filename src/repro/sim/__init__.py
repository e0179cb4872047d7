"""Logic simulation substrates: ternary compiled simulation and 64-way
bit-parallel two-valued simulation on compiled word-op kernels."""

from .compile import (
    CompiledProgram,
    TernaryWordProgram,
    clear_program_cache,
    compile_plan,
    compiled_program_cached,
    pack_ternary_patterns,
    unpack_ternary_word,
)
from .logicsim import SimTrace, TernarySimulator
from .parallel import (
    WORD_BITS,
    BoundStepper,
    ParallelSimulator,
    pack_patterns,
    unpack_word,
)

__all__ = [
    "BoundStepper",
    "CompiledProgram",
    "ParallelSimulator",
    "SimTrace",
    "TernarySimulator",
    "TernaryWordProgram",
    "WORD_BITS",
    "clear_program_cache",
    "compile_plan",
    "compiled_program_cached",
    "pack_patterns",
    "pack_ternary_patterns",
    "unpack_ternary_word",
    "unpack_word",
]
