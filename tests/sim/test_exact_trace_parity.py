"""Traced and packet-logging exact runs: the product's output equals the oracle's.

The oracle (:mod:`tests.sim.exact_reference`) handles period events one
at a time, so each node's events come out in one piece: the failed
in-flight packet, the stale-weight count, brown-outs while settling,
the corrupted forecast, the decayed ``w_u``, ``window.selected``, then
``packet.generated``/``packet.dropped`` and the skewed first attempt.
These tests hold the product's JSONL trace to the oracle's line for
line and field for field, and its packet log to the oracle's record for
record, on a grid of MAC policies, forecasters, a same-period cohort, a
fault plan, short periods whose packets are still in flight when the
next period starts, and a battery that browns out.  Only fields read off the
wall clock are exempt: ``wall_s`` (``perf.refresh``,
``engine.run_finished``) and the ``sim_s_per_wall_s`` rate derived from
it.
"""

import json

import pytest

from repro.constants import SECONDS_PER_DAY
from repro.faults import FaultPlan, NodeReboot
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from tests.sim.exact_reference import ScalarSimulator
from tests.sim.test_exact_golden import BASE, LOW_CAPACITY

DAY = SECONDS_PER_DAY

#: ACK loss, clock skew, forecast corruption, scheduled reboots and
#: reboots on brown-out, together with a short ``w_u`` TTL.
FAULTS = dict(
    faults=FaultPlan(
        ack_loss_probability=0.3,
        clock_skew_s=0.5,
        forecast_corruption_sigma=0.3,
        node_reboots=(
            NodeReboot(node_id=2, time_s=0.3 * DAY),
            NodeReboot(node_id=5, time_s=0.6 * DAY),
        ),
        reboot_on_brownout=True,
        seed=7,
    ),
    w_u_ttl_s=0.05 * DAY,
)

#: Every node on one period: each period is a whole-network cohort.
COHORT = dict(period_range_s=(1800.0, 1800.0))

#: Three-window periods under a 1 % duty cycle: retries outlive their
#: period, so packets are still in flight when the next period starts.
SHORT_PERIODS = dict(period_range_s=(180.0, 180.0), duty_cycle=0.01)


def _base(**overrides) -> SimulationConfig:
    return SimulationConfig(**{**BASE, "duration_s": DAY, **overrides})


GRID = {
    "h50": lambda: _base().as_h(0.5),
    "lorawan": lambda: _base().as_lorawan(),
    "h50c": lambda: _base().as_hc(0.5),
    "same-period-cohort": lambda: _base(**COHORT).as_h(0.5),
    "noisy": lambda: _base(forecaster="noisy", forecast_sigma=0.2).as_h(0.5),
    "persistence": lambda: _base(forecaster="persistence").as_h(0.5),
    "faults": lambda: _base(**FAULTS).as_h(0.5),
    "faults-cohort-low-capacity": lambda: _base(
        **FAULTS, **COHORT, **LOW_CAPACITY
    ).as_h(0.5),
    "short-periods-faults-low-capacity": lambda: _base(
        **FAULTS, **SHORT_PERIODS, **LOW_CAPACITY, duration_s=0.5 * DAY
    ).as_h(0.5),
    "h50-low-capacity": lambda: _base(**LOW_CAPACITY).as_h(0.5),
    "lorawan-low-capacity": lambda: _base(**LOW_CAPACITY).as_lorawan(),
}

#: Fields measured on the wall clock, which no two runs share.
WALL_FIELDS = ("wall_s", "sim_s_per_wall_s")


def trace_lines(path):
    """The trace file's events as dicts, wall-clock fields dropped."""
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            fields = event.get("fields", {})
            for field in WALL_FIELDS:
                fields.pop(field, None)
            events.append(event)
    return events


def log_state(log):
    """A packet log's records and counters."""
    return (
        list(log), log.generated, log.delivered, log.attempts,
        log.energy_drops, log.unsampled, log.dropped,
    )


def run_pair(config, tmp_path):
    """Product and oracle runs of ``config``, traced to files under ``tmp_path``."""
    results = []
    for name, engine in (("product", Simulator), ("oracle", ScalarSimulator)):
        path = str(tmp_path / f"{name}.jsonl")
        results.append(engine(config.replace(trace_path=path)).run())
    return results


@pytest.mark.parametrize("name", sorted(GRID))
def test_trace_and_packet_log_match_oracle(name, tmp_path):
    config = GRID[name]().replace(trace=True, record_packets=True)
    product, oracle = run_pair(config, tmp_path)
    assert product.obs.trace.dropped == oracle.obs.trace.dropped == 0
    got = trace_lines(product.manifest.trace_path)
    want = trace_lines(oracle.manifest.trace_path)
    assert len(got) == len(want)
    for i, (event, expected) in enumerate(zip(got, want)):
        assert event == expected, f"event {i}: {event} != {expected}"
    assert log_state(product.packet_log) == log_state(oracle.packet_log)
    assert product.metrics.nodes == oracle.metrics.nodes


def test_packet_log_only_matches_oracle():
    config = GRID["short-periods-faults-low-capacity"]().replace(record_packets=True)
    product = Simulator(config).run()
    oracle = ScalarSimulator(config).run()
    assert len(oracle.packet_log) > 0
    assert log_state(product.packet_log) == log_state(oracle.packet_log)


#: Events a node may emit between its period event and its decision;
#: the grid's traces must carry each, so the parity above covers them.
HELD_KINDS = {
    "packet.finished", "fault.stale_weight_period", "energy.brownout",
    "fault.brownout", "fault.forecast_corrupted", "wu.stale_decay",
    "window.selected", "packet.generated", "packet.dropped",
    "fault.attempt_skewed",
}


def test_fault_traces_carry_every_period_emission(tmp_path):
    kinds = set()
    reasons = set()
    for name in ("faults", "short-periods-faults-low-capacity"):
        path = str(tmp_path / f"{name}.jsonl")
        Simulator(GRID[name]().replace(trace=True, trace_path=path)).run()
        events = trace_lines(path)
        kinds |= {event["name"] for event in events}
        reasons |= {
            event["fields"]["reason"]
            for event in events
            if event["name"] == "packet.dropped"
        }
    assert HELD_KINDS <= kinds
    assert "no_feasible_window" in reasons


@pytest.mark.parametrize(
    "output", [dict(trace=True), dict(record_packets=True)], ids=["traced", "logging"]
)
def test_run_takes_the_batched_pass(output, monkeypatch):
    cohorts = []
    original = Simulator._on_period_batch

    def counting(self, nodes):
        cohorts.append(len(nodes))
        return original(self, nodes)

    monkeypatch.setattr(Simulator, "_on_period_batch", counting)
    result = Simulator(GRID["faults"]().replace(**output)).run()
    generated = sum(m.packets_generated for m in result.metrics.nodes.values())
    assert max(cohorts) > 1
    assert sum(cohorts) == generated
