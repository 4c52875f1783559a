"""Metric assembly from child results, including idle and absent layers."""

import time

import run
import workloads
from layers import MOVES


def _child(traced, call_s, layers=None, absent=None):
    child = {
        "sim_seed": 1, "traced": traced, "node_days": 100.0, "call_s": call_s,
        "import_s": 0.3, "build_s": 0.01, "run_s": call_s - 0.02,
        "events": 10, "peak_queue_depth": 3, "useful_ratio": 0.5,
        "rss_self_kb": 40 * 1024, "rss_children_kb": 10 * 1024,
    }
    if traced:
        child.update(layers=layers or {}, absent=absent or {},
                     toplevel_s={"run": 0.5}, toplevel_total_s=0.5)
    return child


def test_end_to_end_metrics_are_medians_of_untraced_children():
    children = [_child(False, t) for t in (1.0, 2.0, 4.0)]
    metrics = run.end_to_end_metrics(children)
    assert set(metrics) == {m["name"] for m in run.load_spec()["end_to_end"]}
    assert metrics["node_days_per_s"] == 50.0
    assert metrics["setup_s"] == 0.31
    assert metrics["peak_rss_mb"] == 50.0 and metrics["driver_rss_mb"] == 40.0


def test_layer_metrics_cover_idle_and_absent_layers():
    layers = {"kernels.settle.calls": 7, "kernels.settle.self_s": 0.25}
    children = [_child(False, 1.0), _child(True, 1.25, layers, {"gone": ["missing"]})]
    metrics = run.layer_metrics(children)
    assert list(metrics) == list(MOVES)
    assert metrics["kernels.settle.calls"] == 7
    assert metrics["gateway.calls"] == 0 and metrics["gateway.decode_ratio"] == 0.0
    assert metrics["sharded.coordinator_self_s"] == 0.0
    assert metrics["sim.self_s"] == 1.23 - 0.5
    assert metrics["trace.overhead_pct"] == 25.0
    assert metrics["trace.absent_hooks"] == 1


def test_result_line_reports_the_listed_metrics_with_units():
    spec = run.load_spec()
    record = {"trace": 0, "attempted": 3, "failed": 0,
              "metrics": run.end_to_end_metrics([_child(False, 1.0)])}
    line = run.result_line(record, spec)
    assert line["correct"] and line["metrics"]["setup_s"] == {"value": 0.31, "unit": "s"}
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]


def test_child_count_depends_on_seconds_only():
    assert run.child_count(1) == run.child_count(25) == workloads.SUB_SEEDS
    assert run.child_count(50) == 2 * workloads.SUB_SEEDS


def test_every_run_covers_each_sub_seed_equally(monkeypatch):
    started = []
    monkeypatch.setattr(run, "start_child", lambda spec, timeout: started.append(spec) or {})
    run.run_children("meso-h50", 5, 16, False, time.perf_counter())
    seeds = [spec["sim_seed"] for spec in started]
    assert seeds == [workloads.sim_seed(5, i) for i in range(8)] * 2
    started.clear()
    run.run_children("meso-h50", 5, 8, True, time.perf_counter())
    assert [(s["sim_seed"], s["traced"]) for s in started] == [
        (workloads.sim_seed(5, i // 2), i % 2 == 1) for i in range(8)
    ]


def test_children_past_the_deadline_count_as_failed(monkeypatch):
    monkeypatch.setattr(run, "start_child", lambda spec, timeout: {})
    children = run.run_children("meso-h50", 5, 3, False,
                                time.perf_counter() - run.DEADLINE_S)
    ok, errors = run.evaluate(children, {})
    assert ok == [] and len(errors) == 3 and "deadline" in errors[0]["error"]
