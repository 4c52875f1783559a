"""Which public functions the traced run wraps, and what each layer should move.

A :class:`Layer` names the public functions (``module:attribute`` or
``module:Class.method``) whose calls form one layer's spans, the work
counts taken at those calls, and the end-to-end metric and workload the
layer's numbers should move.  A function imported into another module is
listed at each import site, because callers resolve the name there.

``MOVES`` records, for every per-layer metric, the end-to-end metric it
should move and the workloads on which it does the work (``on``) or is
expected to stay idle (``idle``: under 1 % of the traced engine call).
Its keys are the metric names of ``BENCHMARK.json``'s ``per_layer``
list, which holds their units and directions.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, NamedTuple, Tuple


def _len_arg(position: int) -> Callable:
    return lambda args, result: len(args[position])


def _decoded(args, result) -> int:
    # end_reception returns whether the uplink was decoded; begin_reception
    # returns a token, which is neither True nor a bool.
    return 1 if result is True else 0


def _ended(args, result) -> int:
    return 1 if isinstance(result, bool) else 0


def _file_bytes(args, result) -> int:
    return os.path.getsize(result)


class Layer(NamedTuple):
    """One traced layer: its span name, hook targets and work counts."""

    name: str
    targets: Tuple[str, ...]
    #: count name -> f(args, result) added per completed call.
    counts: Dict[str, Callable] = {}


LAYERS: Tuple[Layer, ...] = (
    Layer("kernels.shading", ("repro.kernels.shading:gather",),
          {"items": _len_arg(1)}),
    Layer("kernels.settle", ("repro.kernels.settle:recurrence",),
          {"chunks": _len_arg(0)}),
    Layer("kernels.rainflow", ("repro.kernels.rainflow:replay",),
          {"samples": _len_arg(1)}),
    Layer("kernels.contention", ("repro.kernels.contention:round_ok",)),
    # The vectorized sweep sends windows with more than
    # ``_SMALL_RESOLVE_LIMIT`` participants to its private array twin of
    # ``resolve_window``; it is wrapped too, or the main contention path
    # of ``meso-aloha`` would count as unattributed glue.
    Layer("contention.resolve", (
        "repro.sim.mesoscopic:resolve_window",
        "repro.sim.mesoscopic_vec:resolve_window",
        "repro.sim.mesoscopic_vec:_resolve_window_vec",
    )),
    Layer("core.mac.batch", (
        "repro.sim.mesoscopic_vec:batch_choose_windows_mixed",
        "repro.sim.engine:batch_choose_windows_mixed",
    ), {"rows": _len_arg(0)}),
    Layer("core.mac.scalar", (
        "repro.core.mac:BatteryLifespanAwareMac.choose_window",
        "repro.core.mac:LorawanAlohaMac.choose_window",
        "repro.core.mac:ThresholdOnlyMac.choose_window",
    )),
    Layer("core.mac.observe", (
        "repro.core.mac:MacPolicy.observe_result",
        "repro.core.mac:BatteryLifespanAwareMac.observe_result",
    )),
    Layer("energy.solar", (
        "repro.energy.solar:SolarModel.power_watts_batch",
        "repro.energy.harvester:Harvester.power_watts",
    )),
    Layer("energy.switch", ("repro.energy.switch:SoftwareDefinedSwitch.apply_window",)),
    Layer("energy.forecast", (
        "repro.energy.forecast:PersistenceForecaster.forecast",
        "repro.energy.forecast:PersistenceForecaster.forecast_batch",
        "repro.energy.forecast:PersistenceForecaster.observe",
    )),
    Layer("node.settle", ("repro.sim.node:EndDevice.settle_to",)),
    Layer("battery.refresh", ("repro.battery.battery:Battery.refresh_degradation",)),
    Layer("gateway", (
        "repro.sim.gateway:Gateway.begin_reception",
        "repro.sim.gateway:Gateway.end_reception",
    ), {"decoded": _decoded, "ends": _ended}),
    Layer("server.uplink", ("repro.sim.server:NetworkServer.handle_uplink",)),
    Layer("checkpoint", (
        "repro.sim.engine:save_checkpoint",
        "repro.sim.mesoscopic:save_checkpoint",
    ), {"bytes": _file_bytes}),
    Layer("sharded.round", ("repro.sim.sharded:LocalTransport.run_round",)),
    Layer("sharded.merge", ("repro.sim.sharded:load_cell_artifact",)),
)

#: Phase hook: lets the tracer attribute top-level spans to the engine's
#: build/run/finalize phases, so ``sim.self_s`` is the run phase minus
#: every top-level span inside it.
PHASE_TARGET = "repro.obs.profiling:Profiler.phase"

ALL = ("meso-h50", "meso-aloha", "exact-faults", "scale-sharded")
MESO = ("meso-h50", "meso-aloha")
#: Workloads that simulate in the traced process itself.  ``scale-sharded``
#: simulates in untraced shard workers, so its traced process shows only
#: the coordinator's layers.
SINGLE = ("meso-h50", "meso-aloha", "exact-faults")


class Move(NamedTuple):
    """What one per-layer metric should move, and where."""

    #: End-to-end metrics this layer metric should move.
    moves: Tuple[str, ...]
    #: Workloads on which the layer does the work.
    on: Tuple[str, ...]
    #: Workloads on which the layer should stay idle.
    idle: Tuple[str, ...] = ()


def _layer(prefix: str, moves, on, idle=(), extra=()) -> Dict[str, Move]:
    move = Move(moves, on, idle)
    return {f"{prefix}.{name}": move for name in ("calls", "self_s", *extra)}


NDS = ("node_days_per_s",)
NDS_RSS = ("node_days_per_s", "peak_rss_mb")
NDS_DRIVER = ("node_days_per_s", "driver_rss_mb")
SHARDED = ("scale-sharded",)

MOVES: Dict[str, Move] = {
    "sim.run_s": Move(NDS, MESO),
    "sim.self_s": Move(NDS, MESO),
    "sim.events": Move(NDS, MESO),
    "sim.peak_queue_depth": Move(NDS, MESO),
    "sim.import_s": Move(("setup_s",), ALL),
    "sim.build_s": Move(("setup_s",), ALL),
    **_layer("kernels.shading", NDS, MESO, ("exact-faults",), ("items",)),
    **_layer("kernels.settle", NDS_RSS, MESO, ("exact-faults",), ("chunks",)),
    **_layer("kernels.rainflow", NDS_RSS, MESO, ("exact-faults",), ("samples",)),
    **_layer("kernels.contention", NDS, ("meso-aloha",), ("exact-faults",)),
    **_layer("contention.resolve", NDS, ("meso-aloha",), ("exact-faults",)),
    "contention.useful_ratio": Move(NDS, ("meso-aloha",)),
    **_layer("core.mac.batch", NDS, ("meso-h50", "exact-faults"), ("meso-aloha",),
             ("rows",)),
    **_layer("core.mac.scalar", NDS, ("exact-faults",), MESO),
    **_layer("core.mac.observe", NDS, ("meso-h50", "exact-faults")),
    **_layer("energy.solar", NDS, SINGLE),
    **_layer("energy.switch", NDS, ("exact-faults",), MESO),
    **_layer("energy.forecast", NDS, ("exact-faults",), MESO),
    **_layer("node.settle", NDS, ("exact-faults",), MESO),
    **_layer("battery.refresh", NDS, SINGLE),
    **_layer("gateway", NDS, ("exact-faults",), MESO, ("decode_ratio",)),
    **_layer("server.uplink", NDS, ("exact-faults",), MESO),
    **_layer("checkpoint", NDS_RSS, ("exact-faults",), MESO, ("bytes",)),
    "sharded.round.calls": Move(NDS_DRIVER, SHARDED, MESO),
    "sharded.round.wait_s": Move(NDS_DRIVER, SHARDED, MESO),
    **_layer("sharded.merge", NDS_DRIVER, SHARDED, MESO),
    "sharded.coordinator_self_s": Move(NDS_DRIVER, SHARDED, MESO),
    "trace.overhead_pct": Move((), ALL),
    "trace.absent_hooks": Move((), ALL),
}
