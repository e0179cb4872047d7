import types

import pytest

from perfbench import spans as spans_mod
from perfbench.spans import Patcher, Recorder, Span, rollup, self_times, traced


def span(id, name, start, end, parent=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent, run="r")


def test_self_time_subtracts_children():
    tree = [
        span("a", "engine", 0.0, 10.0),
        span("b", "compile", 1.0, 3.0, "a"),
        span("c", "compile", 5.0, 6.0, "a"),
        span("d", "inner", 1.5, 2.0, "b"),
    ]
    selfs = self_times(tree)
    assert selfs["a"] == pytest.approx(7.0)
    assert selfs["b"] == pytest.approx(1.5)
    assert selfs["c"] == pytest.approx(1.0)
    assert selfs["d"] == pytest.approx(0.5)


def test_overlapping_children_are_counted_once():
    # Children from two workers may overlap in time.
    tree = [
        span("p", "dispatch", 0.0, 10.0),
        span("w1", "cell", 1.0, 6.0, "p"),
        span("w2", "cell", 4.0, 8.0, "p"),
    ]
    assert self_times(tree)["p"] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent():
    tree = [span("p", "x", 0.0, 2.0), span("c", "y", 1.0, 5.0, "p")]
    assert self_times(tree)["p"] == pytest.approx(1.0)


def test_rollup_counts_recursion_once():
    tree = [
        span("a", "synth", 0.0, 4.0),
        span("b", "synth", 1.0, 2.0, "a"),
        span("c", "synth", 5.0, 6.0),
    ]
    table = rollup(tree)
    assert table["synth"].calls == 3
    assert table["synth"].busy == pytest.approx(5.0)
    assert table["synth"].self_time == pytest.approx(5.0)


def fake_clock(times):
    values = iter(times)
    return lambda: next(values)


def test_recorder_nests_and_records_parents():
    recorder = Recorder(run="it0", clock=fake_clock([0.0, 1.0, 2.0, 3.0]))
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    assert inner.parent == outer.id
    assert outer.parent is None
    assert (outer.start, outer.end) == (0.0, 3.0)
    assert (inner.start, inner.end) == (1.0, 2.0)
    assert {s.run for s in recorder.spans} == {"it0"}


def test_traced_records_even_when_the_call_raises():
    recorder = Recorder()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        traced(boom, "layer", recorder)()
    assert recorder.spans[0].name == "layer"
    assert recorder.spans[0].end >= recorder.spans[0].start
    # The stack unwound: the next span has no parent.
    recorder.begin("next")
    assert recorder.spans[1].parent is None


def test_traced_names_and_annotates_from_arguments():
    recorder = Recorder()
    engine = types.SimpleNamespace(name="hitec")

    def run(self, value):
        return value

    def annotate(s, args, result):
        s.attrs["result"] = result

    wrapped = traced(run, lambda args: f"atpg.{args[0].name}", recorder, annotate)
    assert wrapped(engine, 7) == 7
    assert recorder.spans[0].name == "atpg.hitec"
    assert recorder.spans[0].attrs == {"result": 7}


def test_patcher_rebinds_every_copy_and_restores(monkeypatch):
    import sys

    def original():
        return "original"

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    home.f = original
    user.f = original
    monkeypatch.setitem(sys.modules, "fakepkg.home", home)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    patcher = Patcher(package="fakepkg")
    assert patcher.function(original, lambda: "wrapped") == 2
    assert home.f() == "wrapped" and user.f() == "wrapped"
    table = {"k": original}
    patcher.item(table, "k", lambda: "cell")
    patcher.restore()
    assert home.f is original and user.f is original and table["k"] is original


def test_patcher_refuses_an_unbound_function():
    with pytest.raises(LookupError):
        Patcher(package="no_such_package").function(len, len)


def test_dump_and_load_round_trip(tmp_path):
    recorder = Recorder(run="warm")
    recorder.end(recorder.begin("store.get", hit=True))
    path = str(tmp_path / "spans.jsonl")
    recorder.dump(path)
    assert spans_mod.load_spans(path) == recorder.spans
