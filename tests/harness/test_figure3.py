"""Figure 3 curve utilities, and the tracer a generation run records
on (full generation is exercised by the smoke benches)."""

from repro.atpg.result import EffortBudget
from repro.harness.config import HarnessConfig
from repro.harness.figure3 import Curve, generate, render
from repro.obs import Tracer


def sample_curves():
    return [
        Curve("dense", 0.8, [(0.5, 40.0), (1.0, 80.0), (2.0, 97.0)]),
        Curve("sparse", 1e-5, [(1.0, 20.0), (10.0, 55.0)]),
    ]


class TestCurve:
    def test_cpu_to_reach(self):
        dense = sample_curves()[0]
        assert dense.cpu_to_reach(50.0) == 1.0
        assert dense.cpu_to_reach(95.0) == 2.0
        assert dense.cpu_to_reach(99.0) is None

    def test_final_efficiency(self):
        dense, sparse = sample_curves()
        assert dense.final_efficiency() == 97.0
        assert sparse.final_efficiency() == 55.0
        assert Curve("empty", 0.1, []).final_efficiency() == 0.0


class TestRender:
    def test_render_orders_by_density(self):
        text = render(list(reversed(sample_curves())))
        lines = text.splitlines()
        assert lines[0].startswith("Figure 3")
        dense_line = next(l for l in lines if l.startswith("dense"))
        sparse_line = next(l for l in lines if l.startswith("sparse"))
        assert lines.index(dense_line) < lines.index(sparse_line)

    def test_unreached_levels_dashed(self):
        text = render(sample_curves())
        assert "-" in text


def test_generate_records_hitec_spans_on_the_given_tracer():
    """Each sweep circuit's HITEC run records its spans on the tracer
    it is handed, so a profiled Figure 3 cell is not dark."""
    budget = EffortBudget(
        max_backtracks=20,
        max_frames=2,
        max_justify_depth=3,
        max_preimages=2,
        per_fault_seconds=0.2,
        total_seconds=5.0,
        random_sequences=4,
        random_length=10,
    )
    config = HarnessConfig(budget=budget, max_faults=4)
    tracer = Tracer(record=True)
    curves = generate(config, depths=(1,), tracer=tracer)
    runs = [span for span in tracer.export() if span["name"] == "atpg.run"]
    assert [span["attrs"]["circuit"] for span in runs] == [
        curve.circuit_name for curve in curves
    ]
