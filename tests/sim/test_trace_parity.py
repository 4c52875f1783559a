"""Traced mesoscopic runs: the batched sweep's events equal the oracle's.

The batched sweep defers per-node emissions to each node's place in its
per-node loops (brown-outs returned by the settle pass, the batch
scorer's ``window.selected`` rows, packet and refresh events).  These
tests hold the resulting JSONL trace to the scalar oracle's
(:mod:`tests.sim.meso_reference`) line for line and field for field, on
every configuration of the equivalence grid plus low-capacity runs that
brown out.  Only ``wall_s`` (a wall-clock measurement) is exempt.
"""

import json

import pytest

from repro.constants import SECONDS_PER_DAY
from repro.faults import FaultPlan
from repro.sim import MesoscopicSimulator, mesoscopic_vec
from repro.sim.mesoscopic import WindowEntry
from tests.sim.meso_reference import ScalarMesoscopicSimulator
from tests.sim.test_vectorized_equivalence import vec_config

#: Battery sized well below one night of sleep demand.
LOW_CAPACITY = dict(battery_sizing_factor=0.02, initial_soc=0.3)

GRID = {
    "h50-seed5": lambda: vec_config(seed=5).as_h(0.5),
    "h50-seed11": lambda: vec_config(seed=11).as_h(0.5),
    "h50-seed23": lambda: vec_config(seed=23).as_h(0.5),
    "lorawan": lambda: vec_config().as_lorawan(),
    "h50c": lambda: vec_config().as_hc(0.5),
    "h100": lambda: vec_config().as_h(1.0),
    "jittered": lambda: vec_config(synchronized_start=False, seed=7).as_h(0.5),
    "noisy": lambda: vec_config(forecaster="noisy", seed=3).as_h(0.5),
    "persistence": lambda: vec_config(forecaster="persistence", seed=9).as_h(0.5),
    "fault-plan": lambda: vec_config(
        faults=FaultPlan(ack_loss_probability=0.3, seed=7)
    ).as_h(0.5),
    "dense": lambda: vec_config(
        node_count=16,
        radius_m=500.0,
        period_range_s=(960.0, 1200.0),
        duration_s=SECONDS_PER_DAY,
    ).as_h(0.5),
    "diet": lambda: vec_config(
        node_count=12, duration_s=SECONDS_PER_DAY, memory_profile="diet"
    ).as_h(0.5),
    "h50-low-capacity": lambda: vec_config(**LOW_CAPACITY).as_h(0.5),
    "lorawan-low-capacity": lambda: vec_config(**LOW_CAPACITY).as_lorawan(),
}


def trace_lines(path):
    """The trace file's events as dicts, ``wall_s`` dropped."""
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            event["fields"].pop("wall_s", None)
            events.append(event)
    return events


def traced_pair(config, tmp_path):
    product_path = str(tmp_path / "product.jsonl")
    oracle_path = str(tmp_path / "oracle.jsonl")
    product = MesoscopicSimulator(
        config.replace(trace=True, trace_path=product_path)
    ).run()
    oracle = ScalarMesoscopicSimulator(
        config.replace(trace=True, trace_path=oracle_path)
    ).run()
    assert product.obs.trace.dropped == oracle.obs.trace.dropped == 0
    return trace_lines(product_path), trace_lines(oracle_path)


@pytest.mark.parametrize("name", sorted(GRID))
def test_trace_matches_oracle(name, tmp_path):
    product, oracle = traced_pair(GRID[name](), tmp_path)
    assert len(product) == len(oracle)
    for i, (got, want) in enumerate(zip(product, oracle)):
        assert got == want, f"event {i}: {got} != {want}"


#: Event kinds a low-capacity trace must carry, so that the parity above
#: covers every emission point of the batched sweep.
EXPECTED_EVENTS = {
    "h50-low-capacity": {
        "energy.brownout", "window.selected", "packet.generated",
        "packet.dropped", "packet.finished", "battery.degradation",
        "wu.received", "perf.refresh", "wu.recomputed",
    },
    "lorawan-low-capacity": {
        "energy.brownout", "packet.generated", "packet.dropped",
        "packet.finished", "battery.degradation", "wu.recomputed",
    },
}


@pytest.mark.parametrize("name", sorted(EXPECTED_EVENTS))
def test_low_capacity_traces_brown_out(name, tmp_path):
    product, _ = traced_pair(GRID[name](), tmp_path)
    assert EXPECTED_EVENTS[name] <= {event["name"] for event in product}
    reasons = {
        event["fields"]["reason"]
        for event in product
        if event["name"] == "packet.dropped"
    }
    assert "brownout" in reasons


def test_traced_run_executes_batched_sweep(monkeypatch):
    calls = []
    original = mesoscopic_vec.run_sweep

    def counting(sim):
        calls.append(sim)
        return original(sim)

    monkeypatch.setattr(mesoscopic_vec, "run_sweep", counting)
    sim = MesoscopicSimulator(vec_config(node_count=3, trace=True).as_h(0.5))
    sim.run()
    assert calls == [sim]


def test_repeated_node_window_matches_oracle():
    # Two entries of one node in one absolute window: only the batched
    # resolver's one-entry-at-a-time fallback reaches this case.
    config = vec_config(node_count=4, trace=True, **LOW_CAPACITY).as_h(0.5)
    product = MesoscopicSimulator(config)
    oracle = ScalarMesoscopicSimulator(config)
    window_s = config.window_s
    window_index = 7

    def entries(sim):
        node = sim.nodes[2]
        return [
            WindowEntry(
                node=node,
                immediate=False,
                window_index_in_period=window_index - k,
                period_start_s=k * window_s,
                decision=mesoscopic_vec._FastDecision(1.0 - 0.1 * k),
            )
            for k in range(2)
        ]

    mesoscopic_vec._resolve_batch(
        product,
        entries(product),
        window_index,
        window_s,
        product.nodes[0].harvester.solar,
    )
    oracle._resolve(entries(oracle), window_index, window_s)

    got, want = product.nodes[2], oracle.nodes[2]
    assert got.settled_until_s == want.settled_until_s
    assert got.battery.stored_j == want.battery.stored_j
    assert vars(got.metrics) == vars(want.metrics)
    assert got.mac.tx_energy_estimate_j == want.mac.tx_energy_estimate_j
    assert product.rng.getstate() == oracle.rng.getstate()
    assert list(product.packet_log) == list(oracle.packet_log)
    assert len(product.packet_log) == 2
    events = [e.to_dict() for e in product.obs.trace.events]
    assert events == [e.to_dict() for e in oracle.obs.trace.events]
    assert "energy.brownout" in {event["name"] for event in events}
