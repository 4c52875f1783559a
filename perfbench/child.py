"""One benchmark child run: a fresh process that simulates one configuration.

Usage (the orchestrator ``perfbench/run.py`` starts it)::

    PYTHONPATH=src python3 perfbench/child.py '{"root": ..., "workload": ...,
        "sim_seed": 42, "traced": false, "scratch": ...}'

It times ``import repro`` and the engine call, checks the output, and
prints one JSON object as the last line of its standard output.  With
``"traced": true`` the layer hooks of ``perfbench/layers.py`` are
installed around the same call; the configuration is identical, so
tracing never turns on ``trace``, ``trace_path``, ``record_packets`` or
the hot-loop profiler.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import checks
import workloads


def _useful_ratio(nodes) -> float:
    delivered = sum(m.packets_delivered for m in nodes.values())
    attempts = sum(m.packets_generated + m.retransmissions for m in nodes.values())
    return delivered / attempts if attempts else 0.0


def run_child(spec: dict) -> dict:
    started = time.perf_counter()
    import repro
    import_s = time.perf_counter() - started

    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {src}")
    from repro.kernels import backend
    from repro.obs.profiling import hot_profiler

    scratch = tempfile.mkdtemp(dir=spec["scratch"])
    tracer = None
    try:
        config = workloads.build_config(spec["workload"], spec["sim_seed"], scratch)
        if config.tracing_enabled or config.record_packets or hot_profiler().enabled:
            raise RuntimeError(
                "benchmark runs must keep event tracing, packet capture and profiling off"
            )
        engine = workloads.WORKLOADS[spec["workload"]].engine
        run = repro.run_simulation if engine == "exact" else repro.run_mesoscopic
        if spec["traced"]:
            from layers import LAYERS, PHASE_TARGET
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(LAYERS, PHASE_TARGET)
        call_started = time.perf_counter()
        result = run(config)
        call_s = time.perf_counter() - call_started
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    manifest = result.manifest
    nodes = result.metrics.nodes
    out = {
        "import_s": import_s,
        "build_s": manifest.phase_timings_s.get("build", 0.0),
        "run_s": manifest.phase_timings_s.get("run", 0.0),
        "call_s": call_s,
        "node_days": config.node_count * config.duration_s / workloads.SECONDS_PER_DAY,
        "events": manifest.events_executed,
        "peak_queue_depth": manifest.peak_queue_depth,
        "digest": checks.metrics_digest(
            nodes, manifest.events_executed, manifest.peak_queue_depth
        ),
        "invariant_errors": checks.invariant_errors(nodes, config.soc_cap),
        "useful_ratio": _useful_ratio(nodes),
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "backend": backend(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["absent"] = tracer.absent
        out["toplevel_s"] = {str(k): v for k, v in tracer.toplevel_s.items()}
        out["toplevel_total_s"] = sum(tracer.toplevel_s.values())
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = {"sim_seed": spec["sim_seed"], "traced": spec["traced"]}
    try:
        out.update(run_child(spec))
    except Exception as error:  # reported as a failed run, never raised
        traceback.print_exc()
        out["error"] = f"{type(error).__name__}: {error}"
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
