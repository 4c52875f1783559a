"""Golden outputs of the mesoscopic engine over a small configuration grid.

The equivalence suites compare two sweeps of the same engine against
each other, so a change that moves both (or the removal of one) would
pass them unnoticed.  This suite pins absolute results instead: a
SHA-256 over every node's ``NodeMetrics`` (sorted by node id), the
monthly degradation samples, the per-node linear degradation rates,
``events_executed``, the peak heap depth and the packet log (records in
log order plus its counters), recorded per case.

The grid covers the three MAC families (H-50, LoRaWAN, H-50C), the
oracle, noisy and persistence forecasters, jittered boots, the diet
memory profile, dense contention, a battery small enough to brown out,
a run long enough to take monthly samples, checkpoint + resume and a
two-shard sharded run.  A digest changes whenever simulated behaviour
does; re-record one only for a deliberate model change, never to absorb
a refactor.

To print the digests of the current code::

    PYTHONPATH=src python tests/sim/test_meso_golden.py
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.checkpoint import resume
from repro.constants import SECONDS_PER_DAY
from repro.sim import MesoscopicSimulator, SimulationConfig, run_mesoscopic

BASE = dict(
    node_count=10,
    duration_s=2 * SECONDS_PER_DAY,
    period_range_s=(960.0, 2400.0),
    radius_m=4000.0,
    seed=11,
    record_packets=True,
)

#: Battery sized well below one night of sleep demand: nodes brown out
#: while settling and when funding attempts.
LOW_CAPACITY = dict(battery_sizing_factor=0.02, initial_soc=0.3)


def _config(name: str) -> SimulationConfig:
    base = SimulationConfig(**BASE)
    if name == "h50-oracle":
        return base.as_h(0.5)
    if name == "lorawan":
        return base.as_lorawan()
    if name == "h50c":
        return base.as_hc(0.5)
    if name == "h50-noisy":
        return base.replace(forecaster="noisy", seed=3).as_h(0.5)
    if name == "h50-persistence":
        return base.replace(forecaster="persistence", seed=9).as_h(0.5)
    if name == "h50-jittered":
        return base.replace(synchronized_start=False, seed=7).as_h(0.5)
    if name == "h50-diet":
        return base.replace(
            node_count=12, duration_s=SECONDS_PER_DAY,
            period_range_s=(960.0, 1200.0), memory_profile="diet", seed=7,
        ).as_h(0.5)
    if name == "h50-dense":
        return base.replace(
            node_count=16, radius_m=500.0, period_range_s=(960.0, 1200.0),
            duration_s=SECONDS_PER_DAY,
        ).as_h(0.5)
    if name == "h50-low-capacity":
        return base.replace(**LOW_CAPACITY).as_h(0.5)
    if name == "lorawan-low-capacity":
        return base.replace(**LOW_CAPACITY).as_lorawan()
    if name == "h50-monthly":
        return base.replace(
            node_count=3, duration_s=35 * SECONDS_PER_DAY,
            period_range_s=(3600.0, 7200.0), record_packets=False,
        ).as_h(0.5)
    if name == "h50-sharded":
        return base.replace(
            node_count=36, gateway_count=4, duration_s=SECONDS_PER_DAY,
            period_range_s=(960.0, 1200.0), radius_m=2000.0, shards=2,
        ).as_h(0.5)
    raise KeyError(name)


def _plain(value):
    if isinstance(value, dict):
        return sorted((str(k), _plain(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    return value


def digest(result) -> str:
    """SHA-256 over metrics, monthly samples, rates, heap stats, packets."""
    nodes = result.metrics.nodes
    rows = [
        [node_id, [[f.name, _plain(getattr(nodes[node_id], f.name))]
                   for f in dataclasses.fields(nodes[node_id])]]
        for node_id in sorted(nodes)
    ]
    log = result.packet_log
    packets = None
    if log is not None:
        packets = {
            "records": [_plain(record) for record in log],
            "counters": [log.generated, log.delivered, log.attempts,
                         log.energy_drops],
        }
    payload = json.dumps(
        {
            "nodes": rows,
            "monthly": [_plain(sample) for sample in result.monthly],
            "linear_rates": _plain(result.linear_rates),
            "events": result.manifest.events_executed,
            "peak_queue_depth": result.manifest.peak_queue_depth,
            "packets": packets,
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _resumed(config: SimulationConfig, ckdir: str):
    """Run with cadence checkpoints, then resume from the first one."""
    checkpointed = config.replace(
        checkpoint_every_s=0.37 * SECONDS_PER_DAY, checkpoint_dir=ckdir
    )
    reference = MesoscopicSimulator(checkpointed).run()
    first = sorted(os.listdir(ckdir))[0]
    sim, _ = resume(os.path.join(ckdir, first))
    return reference, sim.run()


GOLDEN = {
    "h50-oracle":
        "87200cbd9975a11dd518ce46bca4fbe2497567e4c8385a96a298e2b3cab2acae",
    "lorawan":
        "49ac8470e6f65cb54575625be5529e8e7a40a419c81d6ccbf9b6548b0fcba65c",
    "h50c":
        "dde9c8963890258f7372a6c2cf77da4cca19233203427c7b5459be8181c2e9cd",
    "h50-noisy":
        "11d2efaae6f33fb3b14f63162e32dd34417fd73082c56d16a39f908cc7a2c578",
    "h50-persistence":
        "bb3fc31ac95f8368775fa2b0893d81d20daaab905a4898d389f4346663b9c899",
    "h50-jittered":
        "a34b433b16f91fb96940765df2fc9cbdd49617c7cfd1b63552a133b2a6281f3b",
    "h50-diet":
        "b58987c71bb677472077ff584cec4ecf6305580625e5701020ac6c1866940e0a",
    "h50-dense":
        "bfde591ef3090bee6303076c6a8b19fe5d3c9ddd70268dc7bbb496110147ffd4",
    "h50-low-capacity":
        "df21f94e0fd9a03a853fca5af98b6f1c3de19c199042ef3cc75d3352003946ac",
    "lorawan-low-capacity":
        "52e40f70e73b2ab6d824600bdff59430d7542181023bae0ba8a1e927b2f4bfb4",
    "h50-monthly":
        "bd14762ad55ca767c9930323e229aa1c074462e66bab55e5083ab86535e088b2",
    "h50-sharded":
        "58535b3e43469a7841e07d030c5170cc3ff831c31a73e2bb5366c30663adffbd",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert digest(run_mesoscopic(_config(name))) == GOLDEN[name]


def test_low_capacity_cases_brown_out():
    # The low-capacity cases must actually exercise the brown-out path.
    for name in ("h50-low-capacity", "lorawan-low-capacity"):
        result = run_mesoscopic(_config(name))
        assert result.packet_log.energy_drops > 0, name


def test_monthly_case_takes_samples():
    assert run_mesoscopic(_config("h50-monthly")).monthly


def test_checkpoint_resume_golden(tmp_path):
    # Checkpoints are not heap events here, so a checkpointed run and
    # its resumption both reproduce the plain run's digest.
    reference, resumed = _resumed(
        _config("h50-low-capacity"), str(tmp_path / "ck")
    )
    assert digest(reference) == GOLDEN["h50-low-capacity"]
    assert digest(resumed) == GOLDEN["h50-low-capacity"]


if __name__ == "__main__":
    for case in GOLDEN:
        print(f'    "{case}":\n        "{digest(run_mesoscopic(_config(case)))}",')
