"""Unit tests for trace spans, exporters and the determinism contract."""

import time

from repro.atpg.result import WorkClock
from repro.obs import (
    Tracer,
    canonical_lines,
    read_trace_jsonl,
    render_rollup,
    rollup_by_path,
    strip_wall_fields,
    write_trace_jsonl,
)


class TestSpans:
    def test_nesting_builds_paths_and_parents(self):
        tracer = Tracer(record=True)
        with tracer.span("task"):
            with tracer.span("atpg.run"):
                with tracer.span("atpg.fault", fault="n1/sa0"):
                    pass
            with tracer.span("lint.gate"):
                pass
        records = tracer.export()
        assert [r["path"] for r in records] == [
            "task",
            "task/atpg.run",
            "task/atpg.run/atpg.fault",
            "task/lint.gate",
        ]
        by_name = {r["name"]: r for r in records}
        assert by_name["atpg.fault"]["parent"] == by_name["atpg.run"]["seq"]
        assert by_name["atpg.run"]["parent"] == by_name["task"]["seq"]
        assert by_name["task"]["parent"] is None
        assert by_name["atpg.fault"]["attrs"] == {"fault": "n1/sa0"}

    def test_export_is_in_start_order(self):
        tracer = Tracer(record=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [r["seq"] for r in tracer.export()] == [0, 1]
        assert [r["name"] for r in tracer.export()] == ["a", "b"]

    def test_virtual_timestamps_come_from_clock(self):
        clock = WorkClock()
        tracer = Tracer(record=True)
        tracer.use_clock(clock)
        with tracer.span("work"):
            clock.charge(100)
        (record,) = tracer.export()
        assert record["t0"] == 0.0
        assert record["t1"] == clock.seconds() > 0.0
        assert record["wall_ms"] >= 0.0

    def test_no_clock_means_null_timestamps(self):
        tracer = Tracer(record=True)
        with tracer.span("setup"):
            pass
        (record,) = tracer.export()
        assert record["t0"] is None and record["t1"] is None

    def test_non_scalar_attrs_are_stringified(self):
        tracer = Tracer(record=True)
        with tracer.span("x", thing=(1, 2)):
            pass
        (record,) = tracer.export()
        assert record["attrs"]["thing"] == "(1, 2)"

    def test_leaked_span_is_closed_by_ancestor_exit(self):
        tracer = Tracer(record=True)
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Simulate an exception path closing only the outer span.
        outer.__exit__(None, None, None)
        records = tracer.export()
        assert [r["name"] for r in records] == ["outer"]

    def test_annotate_adds_sanitized_attrs(self):
        tracer = Tracer(record=True)
        with tracer.span("atpg.fault", fault="n1/sa0") as span:
            span.annotate(search_valid=3, cube=(0, 1))
        (record,) = tracer.export()
        assert record["attrs"] == {
            "fault": "n1/sa0",
            "search_valid": 3,
            "cube": "(0, 1)",
        }


class TestNullPath:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.enabled is False
        a = tracer.span("x", big="attr")
        b = tracer.span("y")
        assert a is b  # one shared object: no per-call allocation
        with a as span:
            span.annotate(ignored=1)
        assert tracer.export() == []

    def test_null_tracers_are_independent(self):
        a, b = Tracer(), Tracer()
        assert a is not b
        a.use_clock(WorkClock())  # must not leak into b
        assert b._clock is None

    def test_null_span_overhead_smoke(self):
        """Disabled span() must stay an attribute test plus a shared
        object return — a loose absolute bound catches accidental
        allocation creep without being timing-flaky."""
        tracer = Tracer()
        start = time.perf_counter()
        for _ in range(100_000):
            with tracer.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0

    def test_default_observability_traces_nothing(self):
        assert Tracer().enabled is False
        assert Tracer(record=True).enabled is True


class TestExport:
    def make_records(self):
        clock = WorkClock()
        tracer = Tracer(record=True)
        tracer.use_clock(clock)
        with tracer.span("task", key="t"):
            with tracer.span("atpg.run"):
                clock.charge(500)
        return tracer.export()

    def test_jsonl_round_trip(self, tmp_path):
        records = self.make_records()
        path = str(tmp_path / "trace.jsonl")
        assert write_trace_jsonl(path, records) == 2
        assert read_trace_jsonl(path) == records

    def test_canonical_lines_strip_wall_fields_only(self):
        records = self.make_records()
        lines = canonical_lines(records)
        assert len(lines) == 2
        assert all("wall" not in line for line in lines)
        assert all("t0" in line for line in lines)
        stripped = strip_wall_fields(records[0])
        assert "wall_ms" not in stripped
        assert stripped["path"] == records[0]["path"]

    def test_canonical_lines_ignore_wall_jitter(self):
        a = self.make_records()
        b = self.make_records()
        for record in b:
            record["wall_ms"] += 123.0
        assert canonical_lines(a) == canonical_lines(b)

    def test_rollup_attributes_self_time(self):
        records = self.make_records()
        totals = rollup_by_path(records)
        assert totals["task"]["count"] == 1
        assert totals["task/atpg.run"]["count"] == 1
        # All the virtual time is in the child, so the parent self time
        # nets to zero.
        assert totals["task"]["self_virtual_s"] == 0.0
        assert totals["task/atpg.run"]["virtual_s"] > 0.0

    def test_render_rollup_ranks_and_truncates(self):
        records = self.make_records()
        text = render_rollup(records, top=1, title="Hot")
        assert text.startswith("Hot")
        assert len(text.splitlines()) == 3  # title + header + one row

    def test_render_rollup_empty(self):
        assert "no spans" in render_rollup([])
