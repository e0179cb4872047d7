"""Search-state observatory: classifier, observer, report and CLI."""

import dataclasses
import itertools
import json
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import ReachableStates, explicit_valid_states, reachable_states
from repro.atpg import (
    EffortBudget,
    HitecEngine,
    Justifier,
    SimBasedEngine,
)
from repro.atpg.learning import IllegalStateCache
from repro.atpg.podem import SearchMeter
from repro.atpg.result import FaultBook, Stopwatch
from repro.circuit.gates import X
from repro.errors import AnalysisError
from repro.obs import Tracer
from repro.obs.search import (
    SearchObserver,
    StateClassifier,
    pair_deltas,
    render_report,
    render_waste_attribution,
    waste_rows_from_ledger_rows,
)
from repro.obs.report import main as report_cli
from repro.sim import TernarySimulator
from tests.helpers import random_circuit


def all_cubes(num_dffs):
    """Every state cube over ``num_dffs`` positions (absent/0/1 each)."""
    for choices in itertools.product((None, 0, 1), repeat=num_dffs):
        yield {
            pos: val for pos, val in enumerate(choices) if val is not None
        }


class TestClassifier:
    @given(st.integers(min_value=0, max_value=80))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_explicit_oracle(self, seed):
        """BDD-backed verdicts match brute force on every state and
        every cube of an enumerable circuit."""
        circuit = random_circuit(seed, num_inputs=3, num_gates=10, num_dffs=3)
        valid = explicit_valid_states(circuit)
        classifier = StateClassifier(circuit)
        assert classifier.available
        assert classifier.num_valid_states() == len(valid)
        for bits in itertools.product((0, 1), repeat=3):
            assert classifier.classify_state(bits) == (bits in valid)
        for cube in all_cubes(3):
            expected = any(
                all(state[pos] == val for pos, val in cube.items())
                for state in valid
            )
            assert classifier.classify_cube(cube) == expected

    def test_empty_cube_is_valid(self, two_bit_counter):
        assert StateClassifier(two_bit_counter).classify_cube({}) is True

    def test_verdicts_are_memoized(self, two_bit_counter):
        classifier = StateClassifier(two_bit_counter)
        assert classifier.classify_cube({0: 1}) is True
        assert classifier._cube_memo == {((0, 1),): True}
        # Second call must hit the memo even if the oracle vanished.
        classifier._reachable = None
        classifier._explicit = None
        assert classifier.classify_cube({0: 1}) is True

    def test_classifiers_share_the_circuits_reachable_set(self, two_bit_counter):
        first, second = StateClassifier(two_bit_counter), StateClassifier(two_bit_counter)
        assert first.available and second.available
        assert first._reachable is second._reachable
        assert first._reachable is reachable_states(two_bit_counter)

    def test_unknown_reset_leaves_verdicts_unclassified(self):
        """No reset state: neither the BDD fixpoint nor the explicit
        traversal applies, so every verdict is None."""
        from repro.circuit import CircuitBuilder

        builder = CircuitBuilder("noreset")
        a = builder.input("a")
        builder.output(builder.dff(builder.xor(a, "q"), init=X, name="q"))
        classifier = StateClassifier(builder.build())
        assert not classifier.available
        assert classifier.num_valid_states() is None
        assert classifier.classify_state((0,)) is None
        assert classifier.classify_cube({0: 1}) is None

    @given(st.integers(min_value=0, max_value=80))
    @settings(max_examples=10, deadline=None)
    def test_explicit_fallback_when_the_fixpoint_fails(self, seed):
        """A circuit the BDD engine rejects is classified by explicit
        breadth-first search, with the same verdicts."""
        from repro.analysis import density

        circuit = random_circuit(seed, num_inputs=3, num_gates=10, num_dffs=3)
        valid = explicit_valid_states(circuit)

        def refuse(_circuit):
            raise AnalysisError("fixpoint unavailable")

        original = density.reachable_states
        density.reachable_states = refuse
        try:
            classifier = StateClassifier(circuit)
            assert classifier.available
        finally:
            density.reachable_states = original
        assert classifier._reachable is None
        assert classifier.num_valid_states() == len(valid)
        for bits in itertools.product((0, 1), repeat=3):
            assert classifier.classify_state(bits) == (bits in valid)
        for cube in all_cubes(3):
            expected = any(
                all(state[pos] == val for pos, val in cube.items())
                for state in valid
            )
            assert classifier.classify_cube(cube) == expected


class TestObserver:
    def test_events_vs_unique(self, two_bit_counter):
        observer = SearchObserver(StateClassifier(two_bit_counter))
        observer.observe_cube({0: 1})
        observer.observe_cube({0: 1})
        tally = observer.tally
        assert tally.examined_events == 2
        assert tally.valid_events == 2
        assert tally.unique_valid == 1
        assert tally.waste_fraction == 0.0

    def test_waste_fraction_none_without_verdicts(self, two_bit_counter):
        observer = SearchObserver(StateClassifier(two_bit_counter))
        assert observer.tally.waste_fraction is None
        observer.note_partial_state()
        assert observer.tally.waste_fraction is None

    def test_per_fault_window(self, toggle_circuit):
        # toggle: only q=0 and q=1 after reset are both reachable; use
        # a 1-DFF circuit so there is no invalid concrete state — the
        # window arithmetic is what's under test.  The engines' fault
        # book owns the per-fault window.
        observer = SearchObserver(StateClassifier(toggle_circuit))
        book = FaultBook(
            ("q/0", "q/1"),
            Stopwatch(1.0),
            types.SimpleNamespace(events=0),
            observer,
        )
        with book.target("q/0", Tracer()) as scope:
            observer.observe_cube({0: 1})
            observer.observe_cube({0: 0})
            assert scope.dwell() == (2, 0)
        scope.close("aborted", 3, 1)
        observer.observe_cube({0: 1})  # between scopes: nobody's dwell
        with book.target("q/1", Tracer()) as scope:
            assert scope.dwell() == (0, 0)
        scope.close("redundant", 0, 1)


class TestEngineWiring:
    def test_hitec_result_carries_search_counters(self):
        circuit = random_circuit(11, num_inputs=3, num_gates=10, num_dffs=3)
        result = HitecEngine(circuit, budget=EffortBudget.quick()).run()
        counters = result.counters()
        for key in (
            "search.states_examined",
            "search.valid_events",
            "search.invalid_events",
            "search.partial_states",
            "search.learned_prunes",
            "search.unclassified",
        ):
            assert key in counters

    def test_remember_trace_counts_partial_states(self, two_bit_counter):
        """Satellite of the paper's state accounting: X-containing
        states are not silently dropped any more — every skip is
        tallied as search.partial_states."""
        observer = SearchObserver(StateClassifier(two_bit_counter))
        justifier = Justifier(
            two_bit_counter,
            EffortBudget.quick(),
            learning=None,
            states_seen=set(),
            observer=observer,
        )
        known_before = len(justifier.known_states)
        num_pis = len(two_bit_counter.inputs)
        justifier.remember_trace([[X] * num_pis] * 3)
        assert observer.tally.partial_states == 3
        assert len(justifier.known_states) == known_before

    def test_learned_prunes_are_tallied(self, two_bit_counter):
        observer = SearchObserver(StateClassifier(two_bit_counter))
        learning = IllegalStateCache()
        learning.learn({0: 1, 1: 1})
        justifier = Justifier(
            two_bit_counter,
            EffortBudget.quick(),
            learning=learning,
            states_seen=set(),
            observer=observer,
        )
        meter = SearchMeter(50, 1.0, Stopwatch(1.0))
        prefix, exhaustive = justifier.justify({0: 1, 1: 1}, meter)
        # The counter says it plainly; the prefix itself depends on
        # whether the known-state database shortcut fires first.
        if prefix is None:
            assert observer.tally.learned_prunes >= 1

    def test_simbased_examines_only_valid_states(self):
        """The sim-based engine only ever drives through reachable
        states, so it is the observatory's zero-waste control group —
        and it now reports states_examined (satellite)."""
        circuit = random_circuit(3, num_inputs=3, num_gates=10, num_dffs=3)
        result = SimBasedEngine(circuit, budget=EffortBudget.quick()).run()
        counters = result.counters()
        assert counters["atpg.states_examined"] == len(
            result.states_traversed
        )
        assert counters["search.states_examined"] == len(
            result.states_traversed
        )
        assert counters["search.invalid_events"] == 0
        assert counters["search.valid_events"] == len(
            result.states_traversed
        )


def behavioral_classes(circuit):
    """Number of behavioral equivalence classes over the reachable
    states (partition refinement on outputs, closed under all input
    vectors) — the retiming-invariant notion of machine size."""
    simulator = TernarySimulator(circuit)
    states = [tuple(s) for s in ReachableStates(circuit).enumerate()]
    vectors = [
        list(bits)
        for bits in itertools.product((0, 1), repeat=len(circuit.inputs))
    ]
    step = {}
    for state in states:
        for index, vector in enumerate(vectors):
            outputs, nxt = simulator.step(vector, list(state))
            step[(state, index)] = (tuple(outputs), tuple(nxt))
    # Initial partition: by output signature across all vectors.
    block = {
        state: tuple(step[(state, i)][0] for i in range(len(vectors)))
        for state in states
    }
    while True:
        refined = {
            state: (
                block[state],
                tuple(
                    block[step[(state, i)][1]] for i in range(len(vectors))
                ),
            )
            for state in states
        }
        if len(set(refined.values())) == len(set(block.values())):
            return len(set(block.values()))
        block = refined


class TestRetimingInvariance:
    def test_quotient_matches_while_waste_rises(self, dk16_rugged):
        """Retiming preserves the machine's behavior — the behavioral
        quotient of the valid sets matches across the pair — while the
        raw valid set inflates and the search wastes strictly more of
        its examined states on the retimed side (the paper's §5)."""
        from repro.retime.core import backward_retime

        original = dk16_rugged.circuit
        retimed = backward_retime(original, 2).circuit

        orig_valid = ReachableStates(original).count()
        re_valid = ReachableStates(retimed).count()
        assert orig_valid == 27  # the paper's Table 6 number
        assert re_valid > orig_valid  # raw valid sets do NOT match...
        # ...but the behavioral quotient does: same machine, re-encoded.
        assert behavioral_classes(original) == behavioral_classes(retimed)

        budget = EffortBudget.quick()
        budget.deterministic_clock = True

        def waste(circuit):
            counters = HitecEngine(circuit, budget=budget).run().counters()
            classified = (
                counters["search.valid_events"]
                + counters["search.invalid_events"]
            )
            assert classified > 0
            return counters["search.invalid_events"] / classified

        assert waste(retimed) > waste(original)


def ledger_row(key, engine, pair, counters, payload=None, outcome="ok"):
    return {
        "v": 4,
        "key": key,
        "kind": f"{engine}_pair",
        "engine": engine,
        "pair": pair,
        "outcome": outcome,
        "counters": counters,
        "payload": payload or {},
    }


SAMPLE_ROWS = [
    ledger_row(
        "hitec:dk16.ji.sd",
        "hitec",
        "dk16.ji.sd",
        {
            "original": {
                "atpg.backtracks": 100,
                "search.states_examined": 60,
                "search.valid_events": 40,
                "search.invalid_events": 20,
                "search.unique_invalid": 4,
                "search.partial_states": 1,
            },
            "retimed": {
                "atpg.backtracks": 400,
                "search.states_examined": 110,
                "search.valid_events": 30,
                "search.invalid_events": 80,
                "search.unique_invalid": 30,
                "search.partial_states": 0,
            },
        },
        payload={
            "tables": {
                "table6": [
                    {"circuit": "dk16.ji.sd", "density": 0.84},
                    {"circuit": "dk16.ji.sd.re", "density": 0.0013},
                ]
            }
        },
    ),
    ledger_row("struct:dk16.ji.sd", None, "dk16.ji.sd", {"lint.findings": 0}),
]


class TestReport:
    def test_waste_rows_join_density_and_backtracks(self):
        rows = waste_rows_from_ledger_rows(SAMPLE_ROWS)
        assert [(r.cell, r.scope) for r in rows] == [
            ("hitec:dk16.ji.sd", "original"),
            ("hitec:dk16.ji.sd", "retimed"),
        ]
        original, retimed = rows
        assert original.circuit == "dk16.ji.sd"
        assert retimed.circuit == "dk16.ji.sd.re"
        assert original.density == 0.84
        assert retimed.density == 0.0013
        assert original.waste == pytest.approx(20 / 60)
        assert retimed.waste == pytest.approx(80 / 110)
        assert retimed.dwell_per_backtrack == pytest.approx(80 / 400)
        pairs = pair_deltas(rows)
        assert len(pairs) == 1
        assert pairs[0][1].waste > pairs[0][0].waste

    def test_latest_ok_row_wins(self):
        older = ledger_row(
            "hitec:dk16.ji.sd",
            "hitec",
            "dk16.ji.sd",
            {"original": {"search.valid_events": 1}},
        )
        rows = waste_rows_from_ledger_rows([older] + SAMPLE_ROWS)
        assert rows[0].valid_events == 40

    def test_render_report_is_deterministic(self):
        text = render_report(waste_rows_from_ledger_rows(SAMPLE_ROWS))
        again = render_report(waste_rows_from_ledger_rows(SAMPLE_ROWS))
        assert text == again
        assert "Search waste attribution" in text
        assert "hitec:dk16.ji.sd original" in text
        assert "0.3333 -> 0.7273" in text
        assert "rises" in text
        assert "Spearman rho" in text

    def test_render_empty(self):
        text = render_report([])
        assert "no cells with search counters" in text
        assert "not enough classified sides" in text

    def test_waste_attribution_skips_searchless_cells(self):
        rows = waste_rows_from_ledger_rows(
            [ledger_row("struct:x", None, "x", {"lint.findings": 1})]
        )
        assert rows == []
        assert "no cells" in render_waste_attribution(rows)


class TestCli:
    def write_run(self, tmp_path, rows):
        run_dir = tmp_path / "runs" / "20260806-000000-abcdef"
        run_dir.mkdir(parents=True)
        with open(run_dir / "ledger.jsonl", "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        return run_dir

    def test_report_from_run_dir(self, tmp_path, capsys):
        run_dir = self.write_run(tmp_path, SAMPLE_ROWS)
        assert report_cli([str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Search waste attribution" in out
        assert "hitec:dk16.ji.sd retimed" in out

    def test_report_newest_run_under_runs_dir(self, tmp_path, capsys):
        self.write_run(tmp_path, SAMPLE_ROWS)
        code = report_cli(["--runs-dir", str(tmp_path / "runs")])
        assert code == 0
        assert "Waste movement" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        run_dir = self.write_run(tmp_path, SAMPLE_ROWS)
        target = tmp_path / "search-report.txt"
        assert report_cli([str(run_dir), "--output", str(target)]) == 0
        assert target.read_text() == capsys.readouterr().out

    def test_searchless_ledger_exits_one(self, tmp_path, capsys):
        run_dir = self.write_run(
            tmp_path,
            [ledger_row("struct:x", None, "x", {"lint.findings": 1})],
        )
        assert report_cli([str(run_dir)]) == 1

    def test_unreadable_source_exits_two(self, tmp_path, capsys):
        assert report_cli([str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


def test_package_imports_before_engines():
    """``import repro.obs.search`` must work from a fresh interpreter
    *before* any engine package is loaded: the engines import this
    package back, so an eager oracle import at module scope would
    deadlock the cycle (the oracle is deferred to first use)."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    proof = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.obs.search; "
            "print(repro.obs.search.SearchObserver is not None)",
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proof.returncode == 0, proof.stderr
    assert proof.stdout.strip() == "True"
