"""The benchmark's workloads: one ``SimulationConfig`` per (workload, seed).

Each workload makes a different layer of the simulator do most of the
work and leaves at least one other layer idle, so a gain in one layer
that costs another shows up (see ``perfbench/layers.py`` for which layer
metric should move on which workload).  Shapes are sized so that one
child run takes a few seconds: a benchmark run repeats several of them
inside its time budget and reports medians.

This module imports ``repro`` only inside :func:`build_config`, so the
orchestrator can list workloads without loading the simulator.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

SECONDS_PER_DAY = 86400.0

#: Seed whose output digests ``perfbench/expected.json`` records.
DEFAULT_SEED = 42

#: Child run ``i`` of a benchmark run simulates seed ``seed + SEED_STRIDE * i``
#: (``i`` cycles through ``SUB_SEEDS`` values).  Averaging over a few
#: topologies per run keeps the seed-to-seed spread of the medians small.
SEED_STRIDE = 7919
SUB_SEEDS = 8


class Workload(NamedTuple):
    """One benchmark workload: its engine and shape.

    Why each workload was chosen is recorded in ``BENCHMARK.json``.
    """

    name: str
    engine: str
    nodes: int
    days: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("meso-h50", "mesoscopic", 200, 1.5),
        Workload("meso-aloha", "mesoscopic", 200, 1.5),
        Workload("exact-faults", "exact", 40, 2.0),
        Workload("scale-sharded", "mesoscopic", 400, 2.0),
    )
}

#: Traffic profile of the ``scale-sharded`` workload.  Mirrors
#: ``SCALE_PROFILE`` in ``benchmarks/bench_engines.py`` (4-8 h periods,
#: 5-minute windows, 8 channels, omega = 8, diet memory profile); it is
#: copied rather than imported so edits to that script never change the
#: benchmark's inputs.  ``record_packets`` is left off: the benchmark
#: never captures packets (the diet profile would keep few rows anyway).
SCALE_PROFILE = dict(
    period_range_s=(240 * 60.0, 480 * 60.0),
    window_s=300.0,
    solar_peak_transmissions=10.0,
    channel_count=8,
    omega=8,
    memory_profile="diet",
    gateway_count=4,
    shards=4,
)


def sim_seed(seed: int, index: int) -> int:
    """Simulation seed of child run ``index`` of a benchmark run."""
    return seed + SEED_STRIDE * (index % SUB_SEEDS)


def build_config(name: str, seed: int, scratch_dir: str):
    """The ``SimulationConfig`` of workload ``name`` at ``seed``.

    ``scratch_dir`` receives the checkpoints of ``exact-faults``.
    """
    from repro import SimulationConfig
    from repro.faults import FaultPlan, GatewayOutage

    workload = WORKLOADS[name]
    duration = workload.days * SECONDS_PER_DAY
    base = SimulationConfig(
        node_count=workload.nodes, duration_s=duration, seed=seed
    )
    if name == "meso-h50":
        return base.as_h(0.5)
    if name == "meso-aloha":
        return base.as_lorawan()
    if name == "exact-faults":
        plan = FaultPlan(
            ack_loss_probability=0.2,
            gateway_outages=(
                GatewayOutage(
                    start_s=0.4 * duration, duration_s=0.1 * duration,
                    gateway_index=1,
                ),
            ),
            clock_skew_s=0.5,
        )
        return base.replace(
            gateway_count=2,
            forecaster="persistence",
            faults=plan,
            checkpoint_every_s=0.5 * SECONDS_PER_DAY,
            checkpoint_dir=scratch_dir,
        ).as_h(0.5)
    if name == "scale-sharded":
        return base.replace(**SCALE_PROFILE).as_h(0.5)
    raise KeyError(name)
