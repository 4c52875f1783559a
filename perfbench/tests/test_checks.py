"""The output check: digests and invariants decide whether a child run failed."""

import run
from checks import invariant_errors, metrics_digest

from repro.sim.metrics import NodeMetrics


def _nodes():
    a = NodeMetrics(node_id=0, period_s=960.0, packets_generated=10,
                    packets_delivered=8, packets_dropped_energy=1,
                    degradation=1e-4, final_soc=0.5)
    a.record_window(3)
    b = NodeMetrics(node_id=1, period_s=1200.0, packets_generated=5,
                    packets_delivered=5, degradation=2e-4, final_soc=0.25)
    return {1: b, 0: a}


def _child(nodes, seed=42, soc_cap=0.5):
    return {
        "sim_seed": seed, "traced": False,
        "digest": metrics_digest(nodes, 100, 7),
        "invariant_errors": invariant_errors(nodes, soc_cap),
    }


def test_digest_covers_every_field_and_engine_counters():
    nodes = _nodes()
    digest = metrics_digest(nodes, 100, 7)
    assert digest == metrics_digest(dict(sorted(nodes.items())), 100, 7)
    assert digest != metrics_digest(nodes, 101, 7)
    assert digest != metrics_digest(nodes, 100, 8)
    nodes[1].tx_energy_j += 1e-15
    assert digest != metrics_digest(nodes, 100, 7)
    nodes[1].tx_energy_j -= 1e-15
    nodes[0].record_window(3)
    assert digest != metrics_digest(nodes, 100, 7)


def test_matching_digest_and_invariants_pass():
    child = _child(_nodes())
    ok, errors = run.evaluate([child], {"42": child["digest"]})
    assert ok == [child] and errors == []


def test_perturbed_digest_counts_as_failed_run():
    child = _child(_nodes())
    expected = "0" * 64
    ok, errors = run.evaluate([child], {"42": expected})
    assert ok == [] and len(errors) == 1
    assert "recorded" in errors[0]["error"]


def test_repeat_of_a_seed_must_reproduce_its_digest():
    first = _child(_nodes())
    nodes = _nodes()
    nodes[0].packets_delivered = 7
    second = _child(nodes)
    ok, errors = run.evaluate([first, second], {})
    assert ok == [first] and len(errors) == 1


def test_broken_invariants_count_as_failed_run():
    for breakage in (
        {"packets_delivered": 10},            # generated < delivered + dropped
        {"final_soc": 0.75},                  # above theta = 0.5
        {"final_soc": -0.01},
        {"degradation": -1e-9},
    ):
        nodes = _nodes()
        for field, value in breakage.items():
            setattr(nodes[0], field, value)
        child = _child(nodes)
        ok, errors = run.evaluate([child], {"42": child["digest"]})
        assert ok == [] and "invariants" in errors[0]["error"], breakage


def test_child_errors_and_timeouts_count_as_failed_runs():
    ok, errors = run.evaluate(
        [{"sim_seed": 1, "traced": False, "error": "timed out after 60 s"}], {}
    )
    assert ok == [] and errors[0]["error"] == "timed out after 60 s"
