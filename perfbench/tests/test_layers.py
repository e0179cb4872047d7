import pytest

from perfbench.layers import PER_LAYER_UNITS, layer_metrics
from perfbench.spans import Span


def span(id, name, start, end, parent=None, run="it1", **attrs):
    return Span(id=id, name=name, start=start, end=end, parent=parent, run=run, attrs=attrs)


def test_every_metric_is_reported_even_with_zero_bases():
    # An original circuit that never backtracks and a workload with no
    # runner, store or simbased calls: every ratio has a zero base.
    metrics = layer_metrics([], 1.0, {"atpg.backtracks": 0}, {})
    assert set(metrics) == set(PER_LAYER_UNITS) - {"trace.overhead_s"}
    assert metrics["atpg.backtracks"] == 0
    assert metrics["atpg.hitec.wall_per_virtual_s"] == 0.0
    assert metrics["fault_sim.ns_per_event"] == 0.0
    assert metrics["runner.pack_frac"] == 0.0
    assert metrics["store.hit_frac"] == 0.0


def test_engine_ratios():
    spans = [
        span("1", "atpg.hitec", 0.0, 4.0),
        span("2", "sim.compile", 0.5, 1.0, "1"),
        span("3", "fault_analysis", 4.0, 4.5),
        span("4", "fault_analysis.compute", 4.0, 4.4, "3"),
        span("5", "fault_analysis", 4.5, 4.6),
    ]
    counters = {
        "atpg.faults_total": 10,
        "atpg.faults_detected": 8,
        "atpg.faults_aborted": 2,
        "collapse.faults_total": 40,
        "search.valid_events": 1,
        "search.invalid_events": 3,
        "virtual.hitec": 0.5,
    }
    metrics = layer_metrics(spans, 5.0, counters, {})
    assert metrics["atpg.hitec.busy_s"] == pytest.approx(4.0)
    assert metrics["atpg.hitec.self_s"] == pytest.approx(3.5)
    assert metrics["atpg.hitec.wall_per_virtual_s"] == pytest.approx(8.0)
    assert metrics["fault_analysis.hit_frac"] == pytest.approx(0.5)
    assert metrics["fault_analysis.target_frac"] == pytest.approx(0.25)
    assert metrics["atpg.detected_targeted_frac"] == pytest.approx(0.8)
    assert metrics["atpg.aborted_frac"] == pytest.approx(0.2)
    assert metrics["search.invalid_frac"] == pytest.approx(0.75)
    assert metrics["split.engine_share"] == pytest.approx(0.8)


def test_runner_split_and_store_hits():
    spans = [
        span("p1", "runner.key_prefix", 0.0, 1.0, run="cold"),
        span("p2", "runner.dispatch", 1.0, 6.0, run="cold"),
        span("w1", "runner.cell", 1.5, 4.0, run="worker:a"),
        span("w2", "synth", 1.6, 2.6, "w1", run="worker:a"),
        span("w3", "runner.cell", 1.5, 5.5, run="worker:b"),
    ]
    warm = [
        span("g1", "store.get", 0.0, 0.1, run="warm", hit=True),
        span("g2", "store.get", 0.1, 0.2, run="warm", hit=True),
    ]
    context = {"cell_wall_sum_s": 8.0, "jobs": 2, "cells": 2}
    metrics = layer_metrics(spans, 6.5, {}, context, warm_spans=warm)
    assert metrics["runner.worker_exec_s"] == pytest.approx(6.5)
    assert metrics["runner.overhead_s"] == pytest.approx(1.5)
    assert metrics["runner.worker_synth_s"] == pytest.approx(1.0)
    assert metrics["runner.key_prefix_s"] == pytest.approx(1.0)
    assert metrics["runner.pack_frac"] == pytest.approx(0.8)
    assert metrics["split.runner_overhead_share"] == pytest.approx(2.5 / 8.0)
    assert metrics["store.gets"] == 2
    assert metrics["store.hit_frac"] == 1.0
