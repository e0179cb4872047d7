"""Which program calls are traced as which layer, and the per-layer
metrics computed from the spans plus the program's own counters.

:func:`install` wraps the public entry point of every layer the
benchmark reports on.  It imports the modules first, so every
``from x import f`` copy of a function is loaded and rebound.  The
mapping of each metric to the end-to-end metric it should move is in
``perfbench/LAYERS.md``.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, List, Optional

from perfbench.spans import Patcher, Recorder, Span, rollup, traced
from perfbench.stats import ratio

_MODULES = (
    "repro.fsm.benchmarks",
    "repro.synth.synthesize",
    "repro.retime.core",
    "repro.lint.gate",
    "repro.fault.analysis",
    "repro.fault.analysis.expand",
    "repro.analysis.density",
    "repro.analysis.seqdepth",
    "repro.analysis.cycles",
    "repro.sim.compile",
    "repro.sim.parallel",
    "repro.atpg.hitec",
    "repro.atpg.sest",
    "repro.atpg.simbased",
    "repro.atpg.registry",
    "repro.service.keys",
    "repro.service.store",
    "repro.harness.suite",
    "repro.harness.ledger",
    "repro.harness.report",
    "repro.harness.cache",
    "repro.harness.runner",
    "repro.harness.table5",
    "repro.harness.table7",
    "repro.harness.experiment",
)

#: (module, function, span name) for module-level functions.
_FUNCTIONS = (
    ("repro.fsm.benchmarks", "benchmark_fsm", "synth.fsm"),
    ("repro.synth.synthesize", "synthesize", "synth"),
    ("repro.harness.suite", "select_retiming", "retime"),
    ("repro.retime.core", "backward_retiming_sweep", "retime"),
    ("repro.lint.gate", "gate_circuit", "lint"),
    ("repro.fault.analysis", "analyze_faults_cached", "fault_analysis"),
    ("repro.fault.analysis", "analyze_faults", "fault_analysis.compute"),
    ("repro.analysis.density", "reachability_report", "analysis.reach"),
    ("repro.analysis.seqdepth", "sequential_depth_report", "analysis.struct"),
    ("repro.analysis.cycles", "count_dff_cycles", "analysis.struct"),
    ("repro.sim.compile", "compiled_program_cached", "sim.compile"),
    ("repro.fault.analysis.expand", "expand_result", "expand"),
    ("repro.service.keys", "cell_key", "keys"),
    ("repro.service.keys", "circuit_structure_hash", "keys"),
    ("repro.harness.ledger", "append_record", "ledger.append"),
    ("repro.harness.report", "assemble_report", "report"),
    ("repro.harness.runner", "_run_parallel", "runner.dispatch"),
    ("repro.harness.runner", "_run_serial", "runner.dispatch"),
)


def _engine_name(args: tuple) -> str:
    return f"atpg.{args[0].name}"


def _mark_hit(span: Span, args: tuple, result) -> None:
    span.attrs["hit"] = result is not None


def install(recorder: Recorder) -> Patcher:
    """Wrap every traced layer; ``Patcher.restore()`` undoes it."""
    modules = {name: importlib.import_module(name) for name in _MODULES}
    patcher = Patcher()
    try:
        for module, attr, span_name in _FUNCTIONS:
            original = getattr(modules[module], attr)
            patcher.function(original, traced(original, span_name, recorder))
        for cls, span_name in (
            (modules["repro.atpg.hitec"].HitecEngine, _engine_name),
            (modules["repro.atpg.simbased"].SimBasedEngine, _engine_name),
        ):
            patcher.attribute(cls, "run", traced(cls.run, span_name, recorder))
        store = modules["repro.service.store"].ResultStore
        patcher.attribute(
            store, "get", traced(store.get, "store.get", recorder, _mark_hit)
        )
        patcher.attribute(store, "put", traced(store.put, "store.put", recorder))
        session = modules["repro.harness.cache"].ServiceSession
        patcher.attribute(
            session,
            "serve_cached",
            traced(session.serve_cached, "runner.key_prefix", recorder),
        )
    except BaseException:
        patcher.restore()
        raise
    return patcher


def install_cells(recorder: Recorder, patcher: Patcher) -> None:
    """Wrap the runner's cell bodies (inside a worker process), so the
    worker's execution time is a span tagged with the task key."""
    runner = importlib.import_module("repro.harness.runner")
    cells = runner._CELLS
    for kind, body in list(cells.items()):
        patcher.item(
            cells,
            kind,
            traced(body, "runner.cell", recorder, _tag_task),
        )


def _tag_task(span: Span, args: tuple, result) -> None:
    span.attrs["task"] = args[0].key


# ---------------------------------------------------------------------------
# Metrics


#: Every per-layer metric name with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "synth.busy_s": "s",
    "synth.calls": "count",
    "retime.busy_s": "s",
    "retime.dff_ratio": "ratio",
    "lint.busy_s": "s",
    "lint.calls": "count",
    "fault_analysis.busy_s": "s",
    "fault_analysis.self_s": "s",
    "fault_analysis.hit_frac": "ratio",
    "fault_analysis.target_frac": "ratio",
    "analysis.reach_busy_s": "s",
    "analysis.struct_busy_s": "s",
    "sim.compile_busy_s": "s",
    "atpg.hitec.busy_s": "s",
    "atpg.hitec.self_s": "s",
    "atpg.sest.busy_s": "s",
    "atpg.sest.self_s": "s",
    "atpg.simbased.busy_s": "s",
    "atpg.simbased.self_s": "s",
    "atpg.hitec.wall_per_virtual_s": "ratio",
    "atpg.sest.wall_per_virtual_s": "ratio",
    "atpg.simbased.wall_per_virtual_s": "ratio",
    "atpg.backtracks": "count",
    "atpg.frames_expanded": "count",
    "atpg.faults_targeted": "count",
    "atpg.detected_targeted_frac": "ratio",
    "atpg.aborted_frac": "ratio",
    "search.invalid_frac": "ratio",
    "fault_sim.expand_busy_s": "s",
    "fault_sim.events": "count",
    "fault_sim.expansion_events": "count",
    "fault_sim.ns_per_event": "ns",
    "runner.cells": "count",
    "runner.retried": "count",
    "runner.quarantined": "count",
    "runner.cell_wall_sum_s": "s",
    "runner.worker_exec_s": "s",
    "runner.overhead_s": "s",
    "runner.worker_synth_s": "s",
    "runner.key_prefix_s": "s",
    "runner.pack_frac": "ratio",
    "ledger.appends": "count",
    "ledger.busy_s": "s",
    "report.busy_s": "s",
    "store.puts": "count",
    "store.put_busy_s": "s",
    "store.gets": "count",
    "store.get_busy_s": "s",
    "store.hit_frac": "ratio",
    "keys.busy_s": "s",
    "split.engine_share": "ratio",
    "split.sim_share": "ratio",
    "split.runner_overhead_share": "ratio",
}


#: Program counters the per-layer metrics are computed from.
_COUNTER_KEYS = (
    "atpg.backtracks",
    "atpg.frames_expanded",
    "atpg.faults_total",
    "atpg.faults_detected",
    "atpg.faults_aborted",
    "search.valid_events",
    "search.invalid_events",
    "sim.events",
    "sim.expansion_events",
    "collapse.faults_total",
)


def _accumulate(totals: Dict[str, float], counters: Dict, engine: str) -> None:
    for key in _COUNTER_KEYS:
        totals[key] = totals.get(key, 0) + counters.get(key, 0)
    virtual = f"virtual.{engine}"
    totals[virtual] = totals.get(virtual, 0.0) + counters.get("atpg.cpu_seconds", 0.0)


def engine_metrics(results: Iterable) -> Dict[str, float]:
    """The program's own counters summed over expanded engine results
    (in-process workloads); deterministic for a given input."""
    totals: Dict[str, float] = {}
    for result in results:
        _accumulate(totals, result.counters(), result.engine)
    return totals


def ledger_engine_metrics(records: Iterable) -> Dict[str, float]:
    """The same sums from the ledger rows of engine cells that ran in
    worker processes."""
    totals: Dict[str, float] = {}
    for record in records:
        if record.outcome == "ok" and record.engine:
            for scope in sorted(record.counters):
                _accumulate(totals, record.counters[scope], record.engine)
    return totals


def layer_metrics(
    spans: List[Span],
    wall: float,
    counters: Dict[str, float],
    context: Dict[str, float],
    warm_spans: Optional[List[Span]] = None,
    setup_spans: Optional[List[Span]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``spans`` are the iteration's spans (parent and workers), ``wall``
    its traced wall time, ``counters`` from :func:`engine_metrics` or
    :func:`ledger_engine_metrics`, ``context`` holds workload facts
    (``dff_ratio``, ``jobs``, runner ledger sums).  ``warm_spans`` are
    the warm replay's spans, when there is one; the store hit fraction
    is taken over them alone.  ``setup_spans`` are those of a traced
    set-up (synthesis and retiming of the workload's pairs).
    """
    warm_spans = warm_spans or []
    parent = [s for s in spans if not s.run.startswith("worker")]
    workers = [s for s in spans if s.run.startswith("worker")]
    table = rollup(spans + warm_spans + (setup_spans or []))
    parent_table = rollup(parent)
    worker_table = rollup(workers)

    def busy(name, source=table):
        entry = source.get(name)
        return entry.busy if entry else 0.0

    def calls(name, source=table):
        entry = source.get(name)
        return entry.calls if entry else 0

    def self_s(name, source=table):
        entry = source.get(name)
        return entry.self_time if entry else 0.0

    metrics: Dict[str, float] = {
        "trace.wall_s": wall,
        "trace.spans": len(spans) + len(warm_spans),
        # FSM generation runs just before synthesis, never inside it.
        "synth.busy_s": busy("synth") + busy("synth.fsm"),
        "synth.calls": calls("synth"),
        "retime.busy_s": busy("retime"),
        "retime.dff_ratio": context.get("dff_ratio", 0.0),
        "lint.busy_s": busy("lint"),
        "lint.calls": calls("lint"),
        "fault_analysis.busy_s": busy("fault_analysis"),
        "fault_analysis.self_s": self_s("fault_analysis"),
        "fault_analysis.hit_frac": 1.0
        - ratio(calls("fault_analysis.compute"), calls("fault_analysis"))
        if calls("fault_analysis")
        else 0.0,
        "fault_analysis.target_frac": ratio(
            counters.get("atpg.faults_total", 0),
            counters.get("collapse.faults_total", 0),
        ),
        "analysis.reach_busy_s": busy("analysis.reach"),
        "analysis.struct_busy_s": busy("analysis.struct"),
        "sim.compile_busy_s": busy("sim.compile"),
        "atpg.backtracks": counters.get("atpg.backtracks", 0),
        "atpg.frames_expanded": counters.get("atpg.frames_expanded", 0),
        "atpg.faults_targeted": counters.get("atpg.faults_total", 0),
        "atpg.detected_targeted_frac": ratio(
            counters.get("atpg.faults_detected", 0),
            counters.get("atpg.faults_total", 0),
        ),
        "atpg.aborted_frac": ratio(
            counters.get("atpg.faults_aborted", 0),
            counters.get("atpg.faults_total", 0),
        ),
        "search.invalid_frac": ratio(
            counters.get("search.invalid_events", 0),
            counters.get("search.invalid_events", 0)
            + counters.get("search.valid_events", 0),
        ),
        "fault_sim.expand_busy_s": busy("expand"),
        "fault_sim.events": counters.get("sim.events", 0),
        "fault_sim.expansion_events": counters.get("sim.expansion_events", 0),
    }
    for engine in ("hitec", "sest", "simbased"):
        name = f"atpg.{engine}"
        metrics[f"{name}.busy_s"] = busy(name)
        metrics[f"{name}.self_s"] = self_s(name)
        metrics[f"{name}.wall_per_virtual_s"] = ratio(
            busy(name), counters.get(f"virtual.{engine}", 0.0)
        )
    metrics["fault_sim.ns_per_event"] = 1e9 * ratio(
        busy("atpg.simbased"),
        counters.get("sim.events", 0) if busy("atpg.simbased") else 0,
    )

    cell_wall = context.get("cell_wall_sum_s", 0.0)
    worker_exec = busy("runner.cell", worker_table)
    worker_synth = busy("synth", worker_table) + busy("retime", worker_table)
    overhead = cell_wall - worker_exec if worker_exec else 0.0
    dispatch = busy("runner.dispatch", parent_table)
    metrics.update(
        {
            "runner.cells": context.get("cells", 0),
            "runner.retried": context.get("retried", 0),
            "runner.quarantined": context.get("quarantined", 0),
            "runner.cell_wall_sum_s": cell_wall,
            "runner.worker_exec_s": worker_exec,
            "runner.overhead_s": overhead,
            "runner.worker_synth_s": worker_synth,
            "runner.key_prefix_s": busy("runner.key_prefix", parent_table),
            "runner.pack_frac": ratio(
                cell_wall, context.get("jobs", 1) * dispatch
            ),
            "ledger.appends": calls("ledger.append"),
            "ledger.busy_s": busy("ledger.append"),
            "report.busy_s": busy("report"),
            "store.puts": calls("store.put"),
            "store.put_busy_s": busy("store.put"),
            "store.gets": calls("store.get"),
            "store.get_busy_s": busy("store.get"),
            "store.hit_frac": ratio(
                sum(1 for s in warm_spans if s.name == "store.get" and s.attrs.get("hit")),
                sum(1 for s in warm_spans if s.name == "store.get"),
            ),
            "keys.busy_s": busy("keys"),
        }
    )
    engine_busy = sum(busy(f"atpg.{e}") for e in ("hitec", "sest", "simbased"))
    metrics["split.engine_share"] = ratio(engine_busy, wall)
    metrics["split.sim_share"] = ratio(busy("atpg.simbased") + busy("expand"), wall)
    metrics["split.runner_overhead_share"] = ratio(overhead + worker_synth, cell_wall)
    return metrics
