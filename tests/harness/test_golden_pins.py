"""Golden values that must not drift when synthesis or the Table 5
searches are optimised.

Cell keys embed the structure hashes, so a drift here would silently
turn every warm store into misses.  The Table 5 searches on retimed
circuits stop at their budget, so their reported values depend on the
search order as well as on the circuit; pinning the full reports keeps
that order fixed.
"""

import pytest

from repro.analysis.cycles import (
    CycleLengthReport,
    CycleReport,
    count_dff_cycles,
    max_cycle_length_report,
)
from repro.analysis.seqdepth import DepthReport, sequential_depth_report
from repro.harness import build_pair
from repro.service.keys import circuit_structure_hash

STRUCTURE_HASHES = {
    "dk16.ji.sd": (
        "d210e6485e258003169eafe153fcc6579839121215259af472ee623d9304d6bf",
        "7372c457091c5f10d78d3fcad39901851e591ad30c8909f9f7f9039b84cf8984",
    ),
    "pma.jo.sd": (
        "d88f8e0a94f908797cc220388967398a999dcd783a8a55ec8d24408db70253bd",
        "5f81e725a13722e4d14a5367096e67abf5ec1b64225a6c0279bfb14dee0e50b9",
    ),
    "s510.jo.sr": (
        "7fca92182729977a2643332c4859139b4b79f67bb9d7108838aa8c43c2a586a0",
        "cdd7063ff52ede28e65038b6b9f78730e3e6361374754644748a5c57b45dc451",
    ),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_HASHES))
def test_structure_hashes_pinned(name):
    pair = build_pair(name)
    assert (
        circuit_structure_hash(pair.original_circuit),
        circuit_structure_hash(pair.retimed_circuit),
    ) == STRUCTURE_HASHES[name]


def test_dk16_table5_original_pinned():
    circuit = build_pair("dk16.ji.sd").original_circuit
    assert sequential_depth_report(circuit) == DepthReport(
        depth=5, exact=True, expansions=652
    )
    assert max_cycle_length_report(circuit) == CycleLengthReport(
        length=5, exact=True, expansions=553
    )
    assert count_dff_cycles(circuit) == CycleReport(
        num_cycles=31,
        max_cycle_length=5,
        count_capped=False,
        length_exact=True,
    )


def test_dk16_table5_retimed_pinned():
    """All three searches hit their budgets: 500k expansions each for
    depth and cycle length, 200k cycles for the subset count."""
    circuit = build_pair("dk16.ji.sd").retimed_circuit
    assert sequential_depth_report(circuit) == DepthReport(
        depth=5, exact=False, expansions=500_001
    )
    assert max_cycle_length_report(circuit) == CycleLengthReport(
        length=5, exact=False, expansions=500_001
    )
    assert count_dff_cycles(circuit) == CycleReport(
        num_cycles=441,
        max_cycle_length=5,
        count_capped=True,
        length_exact=False,
    )
