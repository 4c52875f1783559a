"""Golden outputs of the exact engine over a small configuration grid.

The other exact-engine suites compare two paths that share
``EndDevice.settle_to`` (batched vs one-at-a-time drain, resumed vs
uninterrupted run), so a change to settling itself would pass them
unnoticed.  This suite pins absolute results instead: a SHA-256 over
every node's ``NodeMetrics`` (sorted by node id), the fault counters,
``events_executed`` and the peak event-queue depth, recorded per case.

The grid covers both MAC families, the oracle and persistence
forecasters, a fault plan with ACK loss, a gateway outage and reboots on
brown-out, batch and incremental degradation, compacted SoC traces, a
battery small enough to brown out while sleeping, and checkpoint +
resume.  A digest changes whenever simulated behaviour does; re-record
one only for a deliberate model change, never to absorb a refactor.

To print the digests of the current code::

    PYTHONPATH=src python tests/sim/test_exact_golden.py
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.checkpoint import resume
from repro.constants import SECONDS_PER_DAY
from repro.faults import FaultPlan, GatewayOutage
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator, run_simulation

DURATION_S = 2.0 * SECONDS_PER_DAY

#: A battery of one day's nominal demand starting near empty, so window
#: choices depend on the forecaster and the SoC trace cycles.
BASE = dict(
    node_count=12,
    duration_s=DURATION_S,
    period_range_s=(960.0, 1800.0),
    radius_m=2000.0,
    battery_sizing_factor=1.0,
    initial_soc=0.15,
    seed=23,
)

#: Battery sized well below one night of sleep demand: nodes brown out
#: while settling, not only when funding an attempt.
LOW_CAPACITY = dict(battery_sizing_factor=0.02, initial_soc=0.3)

FAULTS = FaultPlan(
    ack_loss_probability=0.2,
    gateway_outages=(
        GatewayOutage(
            start_s=0.4 * DURATION_S, duration_s=0.1 * DURATION_S,
            gateway_index=1,
        ),
    ),
    reboot_on_brownout=True,
    seed=5,
)


def _config(name: str) -> SimulationConfig:
    base = SimulationConfig(**BASE)
    if name == "h50-oracle":
        return base.as_h(0.5)
    if name == "lorawan-oracle":
        return base.as_lorawan()
    if name == "h50-persistence":
        return base.replace(forecaster="persistence").as_h(0.5)
    if name == "h50-batch-degradation":
        return base.replace(incremental_degradation=False).as_h(0.5)
    if name == "h50-compact-trace":
        return base.replace(compact_trace=True).as_h(0.5)
    if name == "h50-faults":
        return base.replace(
            gateway_count=2, forecaster="persistence", faults=FAULTS,
            **LOW_CAPACITY,
        ).as_h(0.5)
    if name == "lorawan-faults-batch-degradation":
        return base.replace(
            gateway_count=2, faults=FAULTS, incremental_degradation=False,
            **LOW_CAPACITY,
        ).as_lorawan()
    if name == "h50-low-capacity":
        return base.replace(**LOW_CAPACITY).as_h(0.5)
    raise KeyError(name)


def _plain(value):
    if isinstance(value, dict):
        return sorted((str(k), _plain(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    return value


def digest(result) -> str:
    """SHA-256 over per-node metrics, fault counters and queue stats."""
    nodes = result.metrics.nodes
    rows = [
        [node_id, [[f.name, _plain(getattr(nodes[node_id], f.name))]
                   for f in dataclasses.fields(nodes[node_id])]]
        for node_id in sorted(nodes)
    ]
    payload = json.dumps(
        {
            "nodes": rows,
            "faults": _plain(result.fault_counters),
            "events": result.events_executed,
            "peak_queue_depth": result.manifest.peak_queue_depth,
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _resumed(config: SimulationConfig, ckdir: str):
    """Run with cadence checkpoints, then resume from the first one."""
    checkpointed = config.replace(
        checkpoint_every_s=0.37 * SECONDS_PER_DAY, checkpoint_dir=ckdir
    )
    reference = Simulator(checkpointed).run()
    first = sorted(os.listdir(ckdir))[0]
    sim, _ = resume(os.path.join(ckdir, first))
    return reference, sim.run()


GOLDEN = {
    "h50-oracle":
        "c73a7c322eaf11d703c63d6a60cc6b7ce99b4875b69d286b661e6b6da94b20d5",
    "lorawan-oracle":
        "0d411576b31c3c9080738afa5860716e489521dd3a31e3a8afb4dd6c0d43b5ad",
    "h50-persistence":
        "04b154be23b7aefd1eb1ee4d841a1aca921a9c80bd2e3870b5c83b11bcce9726",
    "h50-batch-degradation":
        "c73a7c322eaf11d703c63d6a60cc6b7ce99b4875b69d286b661e6b6da94b20d5",
    "h50-compact-trace":
        "c73a7c322eaf11d703c63d6a60cc6b7ce99b4875b69d286b661e6b6da94b20d5",
    "h50-faults":
        "b946b2aaf131687a697918c48366b115aba4e2971ee5dff0aa0fc04634b39b87",
    "lorawan-faults-batch-degradation":
        "bd64e8be34c65d023a8e9fa148e534e7ffd2cc1b5418de55dd9c8d35a7f29f98",
    "h50-low-capacity":
        "8e9f1a233646af3b38f9164331a821b7138c8b379214dffbbb65a6c3f9cd34bc",
}

#: The fault case with cadence checkpoints (checkpoint events count in
#: ``events_executed``), run through and resumed from its first one.
GOLDEN_RESUMED = (
    "813056beb483e9e2102b5471a75cab1a50b0a702302ae43fae2b29f3a878772d"
)

#: The brown-out events of a traced low-capacity fault run.
GOLDEN_BROWNOUT_EVENTS = (
    "f8dd9883007622b2280f278ff6edff6b63b922257fe45dbd09139990dd539053"
)


def brownout_events(result):
    """The traced brown-out events, in emission order."""
    return [
        (event.name, event.time_s, event.node_id, sorted(event.fields.items()))
        for event in result.obs.trace.events
        if event.name in ("energy.brownout", "fault.brownout")
    ]


def _traced_brownouts():
    config = _config("h50-faults").replace(
        node_count=4, duration_s=0.5 * SECONDS_PER_DAY,
        trace=True, trace_categories=("energy", "fault"),
    )
    return run_simulation(config)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert digest(run_simulation(_config(name))) == GOLDEN[name]


def test_low_capacity_cases_brown_out():
    # The low-capacity cases must actually exercise the brown-out path.
    result = run_simulation(_config("h50-faults"))
    assert result.fault_counters.brownouts > 0
    assert sum(m.reboots for m in result.metrics.nodes.values()) > 0


def test_traced_brownouts_pair_energy_and_fault_events():
    result = _traced_brownouts()
    events = brownout_events(result)
    assert result.obs.trace.dropped == 0
    assert len(events) == 2 * result.fault_counters.brownouts > 0
    # The switch event (stamped at the chunk end) comes first, then the
    # injector's count (stamped at the engine's current time).
    for energy, fault in zip(events[::2], events[1::2]):
        assert energy[0] == "energy.brownout"
        assert fault[0] == "fault.brownout"
    payload = json.dumps(events, separators=(",", ":"))
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
        GOLDEN_BROWNOUT_EVENTS
    )


def test_checkpoint_resume_golden(tmp_path):
    reference, resumed = _resumed(_config("h50-faults"), str(tmp_path / "ck"))
    assert digest(reference) == GOLDEN_RESUMED
    assert digest(resumed) == GOLDEN_RESUMED


if __name__ == "__main__":
    import tempfile

    for case in sorted(GOLDEN):
        print(f'    "{case}": "{digest(run_simulation(_config(case)))}",')
    with tempfile.TemporaryDirectory() as scratch:
        _, resumed_run = _resumed(_config("h50-faults"), os.path.join(scratch, "ck"))
        print(f'GOLDEN_RESUMED = "{digest(resumed_run)}"')
    events = json.dumps(brownout_events(_traced_brownouts()), separators=(",", ":"))
    print(f'GOLDEN_BROWNOUT_EVENTS = "{hashlib.sha256(events.encode()).hexdigest()}"')
