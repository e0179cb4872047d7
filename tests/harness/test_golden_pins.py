"""Golden values that must not drift when synthesis, the Table 5
searches or the PODEM time-frame evaluation are optimised.

Cell keys embed the structure hashes, so a drift here would silently
turn every warm store into misses.  The Table 5 searches on retimed
circuits stop at their budget, so their reported values depend on the
search order as well as on the circuit; pinning the full reports keeps
that order fixed.  The HITEC/SEST pins do the same for the structural
search: a changed decision order or five-valued collapse rule moves
the backtrack count, the lifecycle records or the emitted tests.  The
simulation-based pins do the same for fault simulation: a changed
detection, trimming decision or charged step moves the emitted tests,
the expansion or a ``sim.*`` counter.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.cycles import (
    CycleLengthReport,
    CycleReport,
    count_dff_cycles,
    max_cycle_length_report,
)
from repro.analysis.seqdepth import DepthReport, sequential_depth_report
from repro.atpg.hitec import HitecEngine
from repro.atpg.sest import SestEngine
from repro.atpg.simbased import SimBasedEngine
from repro.fault.analysis import analyze_faults_cached, expand_result
from repro.harness import build_pair
from repro.harness.config import HarnessConfig, select_target_faults
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


# HITEC (engine seed 17) and SEST (seed 29) on dk16.ji.sd under the
# quick budget and an 18-fault sample drawn with seed 97: the counters
# each run reports and the sha256 of its emitted test set.
SEARCH_PINS = {
    ("hitec", "original"): (
        {
            "atpg.backtracks": 102,
            "atpg.cpu_seconds": 0.0227,
            "atpg.faults_aborted": 0,
            "atpg.faults_detected": 13,
            "atpg.faults_redundant": 0,
            "atpg.faults_total": 13,
            "atpg.frames_expanded": 6,
            "atpg.states_examined": 7,
            "atpg.states_traversed": 23,
            "atpg.test_sequences": 6,
            "atpg.test_vectors": 120,
            "lifecycle.aborted_backtrack_limit": 0,
            "lifecycle.aborted_frame_limit": 0,
            "lifecycle.aborted_stall": 0,
            "lifecycle.aborted_time_budget": 0,
            "lifecycle.detected_incidental": 10,
            "lifecycle.detected_targeted": 3,
            "lifecycle.faults_targeted": 3,
            "search.invalid_events": 0,
            "search.learned_prunes": 0,
            "search.partial_states": 0,
            "search.states_examined": 7,
            "search.unclassified": 0,
            "search.unique_invalid": 0,
            "search.unique_valid": 7,
            "search.valid_events": 7,
            "sim.events": 2420,
        },
        "fbe01fcc26d15983db79849296d8c0bb6ac8e3aa241774c9cfda46bb44ee18bb",
    ),
    ("hitec", "retimed"): (
        {
            "atpg.backtracks": 401,
            "atpg.cpu_seconds": 0.050100000000000006,
            "atpg.faults_aborted": 2,
            "atpg.faults_detected": 14,
            "atpg.faults_redundant": 0,
            "atpg.faults_total": 16,
            "atpg.frames_expanded": 4,
            "atpg.states_examined": 0,
            "atpg.states_traversed": 55,
            "atpg.test_sequences": 3,
            "atpg.test_vectors": 75,
            "lifecycle.aborted_backtrack_limit": 2,
            "lifecycle.aborted_frame_limit": 0,
            "lifecycle.aborted_stall": 0,
            "lifecycle.aborted_time_budget": 0,
            "lifecycle.detected_incidental": 14,
            "lifecycle.detected_targeted": 0,
            "lifecycle.faults_targeted": 2,
            "search.invalid_events": 1,
            "search.learned_prunes": 0,
            "search.partial_states": 0,
            "search.states_examined": 1,
            "search.unclassified": 0,
            "search.unique_invalid": 1,
            "search.unique_valid": 0,
            "search.valid_events": 0,
            "sim.events": 1675,
        },
        "afb14a72f1d03cad2522b972b78c5441dd59dbd27e8b6af445ec4bb2e74acfb4",
    ),
    ("sest", "original"): (
        {
            "atpg.backtracks": 172,
            "atpg.cpu_seconds": 0.028200000000000003,
            "atpg.faults_aborted": 0,
            "atpg.faults_detected": 13,
            "atpg.faults_redundant": 0,
            "atpg.faults_total": 13,
            "atpg.frames_expanded": 4,
            "atpg.states_examined": 8,
            "atpg.states_traversed": 24,
            "atpg.test_sequences": 7,
            "atpg.test_vectors": 153,
            "lifecycle.aborted_backtrack_limit": 0,
            "lifecycle.aborted_frame_limit": 0,
            "lifecycle.aborted_stall": 0,
            "lifecycle.aborted_time_budget": 0,
            "lifecycle.detected_incidental": 11,
            "lifecycle.detected_targeted": 2,
            "lifecycle.faults_targeted": 2,
            "search.invalid_events": 0,
            "search.learned_prunes": 0,
            "search.partial_states": 0,
            "search.states_examined": 8,
            "search.unclassified": 0,
            "search.unique_invalid": 0,
            "search.unique_valid": 8,
            "search.valid_events": 8,
            "sim.events": 2054,
        },
        "6e465957e5d7e3e87be89129d75dc9285f2dd1487b42b7f5139b14b8ac193514",
    ),
    ("sest", "retimed"): (
        {
            "atpg.backtracks": 435,
            "atpg.cpu_seconds": 0.055,
            "atpg.faults_aborted": 2,
            "atpg.faults_detected": 14,
            "atpg.faults_redundant": 0,
            "atpg.faults_total": 16,
            "atpg.frames_expanded": 6,
            "atpg.states_examined": 0,
            "atpg.states_traversed": 73,
            "atpg.test_sequences": 3,
            "atpg.test_vectors": 66,
            "lifecycle.aborted_backtrack_limit": 2,
            "lifecycle.aborted_frame_limit": 0,
            "lifecycle.aborted_stall": 0,
            "lifecycle.aborted_time_budget": 0,
            "lifecycle.detected_incidental": 13,
            "lifecycle.detected_targeted": 1,
            "lifecycle.faults_targeted": 3,
            "search.invalid_events": 1,
            "search.learned_prunes": 0,
            "search.partial_states": 0,
            "search.states_examined": 2,
            "search.unclassified": 0,
            "search.unique_invalid": 1,
            "search.unique_valid": 1,
            "search.valid_events": 1,
            "sim.events": 2039,
        },
        "a5a1782bb005db88f80cb62672b739b9465ca7a551366d3791350cc52759224b",
    ),
}

SEARCH_ENGINES = {"hitec": (HitecEngine, 17), "sest": (SestEngine, 29)}


@pytest.mark.parametrize("engine,side", sorted(SEARCH_PINS))
def test_dk16_search_pinned(engine, side):
    config = dataclasses.replace(
        HarnessConfig.quick(), max_faults=18, fault_sample_seed=97
    )
    pair = build_pair("dk16.ji.sd")
    circuit = (
        pair.original_circuit if side == "original" else pair.retimed_circuit
    )
    analysis = analyze_faults_cached(circuit, level=config.collapse_level)
    targets = select_target_faults(analysis, config)
    engine_class, seed = SEARCH_ENGINES[engine]
    result = engine_class(circuit, budget=config.budget, rng_seed=seed).run(
        targets
    )
    digest = hashlib.sha256(
        json.dumps(result.test_set.sequences).encode()
    ).hexdigest()
    assert (result.counters(), digest) == SEARCH_PINS[(engine, side)]


# The simulation-based engine (seed 23) under the quick budget on a
# 40-fault sample drawn with seed 97: the expanded result's counters,
# the engine's fault-simulator counters() and the sha256 of the test set.
SIMBASED_PINS = {
    ("dk16.ji.sd", "original"): (
        {
            "atpg.backtracks": 0,
            "atpg.cpu_seconds": 0.054,
            "atpg.faults_aborted": 6,
            "atpg.faults_detected": 23,
            "atpg.faults_redundant": 0,
            "atpg.faults_total": 29,
            "atpg.frames_expanded": 0,
            "atpg.states_examined": 24,
            "atpg.states_traversed": 24,
            "atpg.test_sequences": 8,
            "atpg.test_vectors": 240,
            "collapse.checkpoints": 18,
            "collapse.dominated_classes": 56,
            "collapse.equiv_classes": 320,
            "collapse.faults_total": 592,
            "collapse.representatives": 264,
            "collapse.untestable_classes": 0,
            "cover.faults_aborted": 15,
            "cover.faults_detected": 445,
            "cover.faults_redundant": 0,
            "cover.faults_total": 592,
            "cover.faults_untestable": 0,
            "lifecycle.aborted_backtrack_limit": 0,
            "lifecycle.aborted_frame_limit": 0,
            "lifecycle.aborted_stall": 6,
            "lifecycle.aborted_time_budget": 0,
            "lifecycle.detected_incidental": 23,
            "lifecycle.detected_targeted": 0,
            "lifecycle.faults_targeted": 6,
            "search.invalid_events": 0,
            "search.learned_prunes": 0,
            "search.partial_states": 0,
            "search.states_examined": 24,
            "search.unclassified": 0,
            "search.unique_invalid": 0,
            "search.unique_valid": 24,
            "search.valid_events": 24,
            "sim.events": 32277,
            "sim.expansion_events": 28340,
        },
        {
            "sim.events": 32277,
            "sim.faults_dropped": 23,
            "sim.pattern_batches": 4079,
            "sim.sequences": 120,
            "sim.words_packed": 36711,
        },
        "6a4a0d02716bd3e9d559332984094db369451317b2aa5e4239c37bc41ccea33d",
    ),
    ("dk16.ji.sd", "retimed"): (
        {
            "atpg.backtracks": 0,
            "atpg.cpu_seconds": 0.096,
            "atpg.faults_aborted": 1,
            "atpg.faults_detected": 34,
            "atpg.faults_redundant": 0,
            "atpg.faults_total": 35,
            "atpg.frames_expanded": 0,
            "atpg.states_examined": 149,
            "atpg.states_traversed": 149,
            "atpg.test_sequences": 10,
            "atpg.test_vectors": 285,
            "collapse.checkpoints": 35,
            "collapse.dominated_classes": 64,
            "collapse.equiv_classes": 344,
            "collapse.faults_total": 616,
            "collapse.representatives": 280,
            "collapse.untestable_classes": 0,
            "cover.faults_aborted": 2,
            "cover.faults_detected": 510,
            "cover.faults_redundant": 0,
            "cover.faults_total": 616,
            "cover.faults_untestable": 0,
            "lifecycle.aborted_backtrack_limit": 0,
            "lifecycle.aborted_frame_limit": 0,
            "lifecycle.aborted_stall": 1,
            "lifecycle.aborted_time_budget": 0,
            "lifecycle.detected_incidental": 34,
            "lifecycle.detected_targeted": 0,
            "lifecycle.faults_targeted": 1,
            "search.invalid_events": 0,
            "search.learned_prunes": 0,
            "search.partial_states": 0,
            "search.states_examined": 149,
            "search.unclassified": 0,
            "search.unique_invalid": 0,
            "search.unique_valid": 149,
            "search.valid_events": 149,
            "sim.events": 28614,
            "sim.expansion_events": 31260,
        },
        {
            "sim.events": 28614,
            "sim.faults_dropped": 34,
            "sim.pattern_batches": 7295,
            "sim.sequences": 206,
            "sim.words_packed": 153195,
        },
        "2cc5ddcd06b3b96760e298ba44d8abb96982ef2ff097492fa4eb7b666aec3011",
    ),
    ("s510.jc.sd", "original"): (
        {
            "atpg.backtracks": 0,
            "atpg.cpu_seconds": 0.096,
            "atpg.faults_aborted": 2,
            "atpg.faults_detected": 32,
            "atpg.faults_redundant": 0,
            "atpg.faults_total": 34,
            "atpg.frames_expanded": 0,
            "atpg.states_examined": 45,
            "atpg.states_traversed": 45,
            "atpg.test_sequences": 14,
            "atpg.test_vectors": 495,
            "collapse.checkpoints": 51,
            "collapse.dominated_classes": 129,
            "collapse.equiv_classes": 881,
            "collapse.faults_total": 1638,
            "collapse.representatives": 750,
            "collapse.untestable_classes": 2,
            "cover.faults_aborted": 4,
            "cover.faults_detected": 1186,
            "cover.faults_redundant": 0,
            "cover.faults_total": 1638,
            "cover.faults_untestable": 2,
            "lifecycle.aborted_backtrack_limit": 0,
            "lifecycle.aborted_frame_limit": 0,
            "lifecycle.aborted_stall": 2,
            "lifecycle.aborted_time_budget": 0,
            "lifecycle.detected_incidental": 32,
            "lifecycle.detected_targeted": 0,
            "lifecycle.faults_targeted": 2,
            "search.invalid_events": 0,
            "search.learned_prunes": 0,
            "search.partial_states": 0,
            "search.states_examined": 45,
            "search.unclassified": 0,
            "search.unique_invalid": 0,
            "search.unique_valid": 45,
            "search.valid_events": 45,
            "sim.events": 39315,
            "sim.expansion_events": 194825,
        },
        {
            "sim.events": 39315,
            "sim.faults_dropped": 32,
            "sim.pattern_batches": 7475,
            "sim.sequences": 209,
            "sim.words_packed": 201825,
        },
        "55fee387de6407bc58700feccb54f1e932e995797929f82049cefdf7ee4ce3f2",
    ),
    ("s510.jc.sd", "retimed"): (
        {
            "atpg.backtracks": 0,
            "atpg.cpu_seconds": 0.132,
            "atpg.faults_aborted": 1,
            "atpg.faults_detected": 31,
            "atpg.faults_redundant": 0,
            "atpg.faults_total": 32,
            "atpg.frames_expanded": 0,
            "atpg.states_examined": 242,
            "atpg.states_traversed": 242,
            "atpg.test_sequences": 14,
            "atpg.test_vectors": 555,
            "collapse.checkpoints": 67,
            "collapse.dominated_classes": 134,
            "collapse.equiv_classes": 901,
            "collapse.faults_total": 1658,
            "collapse.representatives": 765,
            "collapse.untestable_classes": 2,
            "cover.faults_aborted": 1,
            "cover.faults_detected": 1309,
            "cover.faults_redundant": 0,
            "cover.faults_total": 1658,
            "cover.faults_untestable": 2,
            "lifecycle.aborted_backtrack_limit": 0,
            "lifecycle.aborted_frame_limit": 0,
            "lifecycle.aborted_stall": 1,
            "lifecycle.aborted_time_budget": 0,
            "lifecycle.detected_incidental": 31,
            "lifecycle.detected_targeted": 0,
            "lifecycle.faults_targeted": 1,
            "search.invalid_events": 0,
            "search.learned_prunes": 0,
            "search.partial_states": 0,
            "search.states_examined": 242,
            "search.unclassified": 0,
            "search.unique_invalid": 0,
            "search.unique_valid": 242,
            "search.valid_events": 242,
            "sim.events": 62934,
            "sim.expansion_events": 200855,
        },
        {
            "sim.events": 62934,
            "sim.faults_dropped": 31,
            "sim.pattern_batches": 11177,
            "sim.sequences": 279,
            "sim.words_packed": 413549,
        },
        "e9a7a78863e7ec617c8a44597443162ac76430676b2e3f0d0764d7733ec64c6b",
    ),
}


@pytest.mark.parametrize("name,side", sorted(SIMBASED_PINS))
def test_simbased_pinned(name, side):
    config = dataclasses.replace(
        HarnessConfig.quick(), max_faults=40, fault_sample_seed=97
    )
    pair = build_pair(name)
    circuit = (
        pair.original_circuit if side == "original" else pair.retimed_circuit
    )
    analysis = analyze_faults_cached(circuit, level=config.collapse_level)
    targets = select_target_faults(analysis, config)
    engine = SimBasedEngine(circuit, budget=config.budget, rng_seed=23)
    result = engine.run(targets)
    expanded = expand_result(result, analysis, circuit)
    sim_counters = engine._simulator.counters()
    digest = hashlib.sha256(
        json.dumps(result.test_set.sequences).encode()
    ).hexdigest()
    assert (expanded.counters(), sim_counters, digest) == SIMBASED_PINS[
        (name, side)
    ]
