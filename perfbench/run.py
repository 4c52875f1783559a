"""Run the simulator benchmark and print its metrics.

One benchmark run measures one workload (see ``perfbench/workloads.py``)
for about ``--seconds`` seconds.  It starts a fixed number of fresh
child processes one after another (``perfbench/child.py``), each of
which imports ``repro``, simulates one configuration and reports its
timings, memory and output digest; the run reports medians over its
children.  The number of children follows from ``--seconds`` alone,
never from how fast they run, so both sides of a comparison simulate
the same topologies.  Every child's output is checked
(``perfbench/checks.py``); a child that raises, times out or fails a
check counts as failed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload meso-h50 --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --all                # every workload, summary table
    python3 perfbench/run.py --update-digests     # re-record perfbench/expected.json

``--trace 0`` times untraced children and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced children of the same
configuration and prints the per-layer metrics, with the tracing
overhead beside them.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--record
FILE`` appends the full, self-describing result record (schema, seed,
host fingerprint, every child) to FILE as one JSON line; compare two
such files with ``perfbench/compare.py``.  Workload names, metric units
and directions are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import checks
import fingerprint
import workloads
from layers import MOVES

SCHEMA = "perfbench/1"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(ROOT, ".perfbench")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Seconds one cycle of ``SUB_SEEDS`` children takes, roughly, on a 2-vCPU
#: x86 host at the workloads' shapes (17-28 s by workload).  A run is
#: ``round(--seconds / CYCLE_S)`` cycles (at least one), so every run of
#: every workload simulates each of its sub-seeds equally often.
CYCLE_S = 20.0
#: Wall-clock limit of a whole run; children still running are killed
#: and those not started count as failed.
DEADLINE_S = 165.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (no simulator source, import fails)."""


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: workload names, metric units and directions."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def child_count(seconds: float) -> int:
    """Children in one run: whole cycles of the workload's sub-seeds."""
    return workloads.SUB_SEEDS * max(1, round(seconds / CYCLE_S))


def child_env() -> Dict[str, str]:
    """Environment of every child: ``src`` importable, threads pinned to 1."""
    env = dict(os.environ)
    env.update(fingerprint.THREAD_ENV)
    path = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = path + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(SCRATCH, "tmp")
    return env


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def start_child(spec: Dict[str, object], timeout_s: float) -> Dict[str, object]:
    """Run one child to completion; its parsed result or an ``error``."""
    process = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(process)
        process.communicate()
        return {"sim_seed": spec["sim_seed"], "traced": spec["traced"],
                "error": f"timed out after {timeout_s:.0f} s"}
    finally:
        # Shard workers share the child's process group; none may outlive it.
        _kill_group(process)
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"sim_seed": spec["sim_seed"], "traced": spec["traced"],
                "error": f"child exited {process.returncode}: {tail[0]}"}
    if result.get("error"):
        sys.stderr.write(stderr)
    return result


def preflight() -> None:
    """Fail fast where the simulator source is missing or cannot import."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchmarkError(f"no simulator source at {os.path.join(ROOT, 'src')}")
    os.makedirs(os.path.join(SCRATCH, "tmp"), exist_ok=True)
    # Also warms the bytecode and page caches before anything is timed.
    probe = subprocess.run(
        [sys.executable, "-c", "import repro"], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        raise BenchmarkError(f"import repro failed: {probe.stderr.strip()[-500:]}")


def load_expected() -> Dict[str, Dict[str, str]]:
    """Recorded digests: workload -> {simulation seed: digest}."""
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            return json.load(handle)["digests"]
    except FileNotFoundError:
        return {}


def run_children(workload: str, seed: int, count: int, trace: bool,
                 started: float) -> List[Dict[str, object]]:
    """Run ``count`` children, one after another.

    Untraced runs cycle through the workload's sub-seeds.  Traced runs
    alternate an untraced and a traced child of each sub-seed, so the
    tracing overhead compares like with like.  Children that cannot
    start before the run's deadline are reported as timed out.
    """
    children: List[Dict[str, object]] = []
    for index in range(count):
        elapsed = time.perf_counter() - started
        if trace:
            spec_seed, traced = workloads.sim_seed(seed, index // 2), index % 2 == 1
        else:
            spec_seed, traced = workloads.sim_seed(seed, index), False
        if elapsed >= DEADLINE_S - 5.0:
            children.append({"sim_seed": spec_seed, "traced": traced,
                             "error": f"not started: run deadline of {DEADLINE_S:.0f} s"})
            continue
        spec = {"root": ROOT, "workload": workload, "sim_seed": spec_seed,
                "traced": traced, "scratch": os.path.join(SCRATCH, "tmp")}
        children.append(start_child(spec, DEADLINE_S - elapsed))
    return children


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _nd_per_s(child: Dict[str, object]) -> float:
    return child["node_days"] / child["call_s"]


def end_to_end_metrics(ok: List[Dict[str, object]]) -> Dict[str, float]:
    """Medians over the untraced children that passed their checks."""
    plain = [c for c in ok if not c["traced"]]
    return {
        "node_days_per_s": _median([_nd_per_s(c) for c in plain]),
        "setup_s": _median([c["import_s"] + c["build_s"] for c in plain]),
        "peak_rss_mb": _median(
            [(c["rss_self_kb"] + c["rss_children_kb"]) / 1024.0 for c in plain]
        ),
        "driver_rss_mb": _median([c["rss_self_kb"] / 1024.0 for c in plain]),
    }


#: Per-layer metrics that are not a plain ``<layer>.<count>`` aggregate:
#: name -> value of one traced child.
DERIVED = {
    "sim.run_s": lambda c: c["run_s"],
    "sim.self_s": lambda c: c["run_s"] - c["toplevel_s"].get("run", 0.0),
    "sim.events": lambda c: c["events"],
    "sim.peak_queue_depth": lambda c: c["peak_queue_depth"],
    "sim.import_s": lambda c: c["import_s"],
    "sim.build_s": lambda c: c["build_s"],
    "contention.useful_ratio": lambda c: c["useful_ratio"],
    "gateway.decode_ratio": lambda c: (
        c["layers"].get("gateway.decoded", 0) / max(c["layers"].get("gateway.ends", 0), 1)
    ),
    "sharded.round.wait_s": lambda c: c["layers"].get("sharded.round.total_s", 0.0),
    "sharded.coordinator_self_s": lambda c: (
        c["call_s"] - c["toplevel_total_s"]
        if c["layers"].get("sharded.round.calls") else 0.0
    ),
    "trace.absent_hooks": lambda c: len(c["absent"]),
}


def layer_metrics(ok: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced children that passed.

    ``sim.self_s`` is the explicit remainder: the run phase minus every
    top-level layer span inside it (unattributed glue).
    ``trace.overhead_pct`` compares the median throughput of the untraced
    and traced children.
    """
    traced = [c for c in ok if c["traced"]]
    plain = [c for c in ok if not c["traced"]]
    values: Dict[str, float] = {}
    for name in MOVES:
        if name == "trace.overhead_pct":
            traced_rate = _median([_nd_per_s(c) for c in traced])
            plain_rate = _median([_nd_per_s(c) for c in plain])
            values[name] = (plain_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0
            continue
        value = DERIVED.get(name, lambda c, n=name: c["layers"].get(n, 0))
        values[name] = _median([value(c) for c in traced])
    return values


def evaluate(children: List[Dict[str, object]], expected: Dict[str, str]):
    """Split children into those that passed every check and the failures.

    ``expected`` maps simulation seeds (as strings) to recorded digests.
    Returns ``(ok_children, [{"sim_seed", "error"}, ...])``.
    """
    seen: Dict[int, str] = {}
    ok, errors = [], []
    for child in children:
        error = checks.check_child(child, expected.get(str(child["sim_seed"])), seen)
        if error is None:
            ok.append(child)
        else:
            errors.append({"sim_seed": child["sim_seed"], "error": error})
    return ok, errors


def measure(workload: str, seed: int, seconds: float, trace: bool,
            started: Optional[float] = None) -> Dict[str, object]:
    """One benchmark run; returns its full result record."""
    if workload not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
    started = time.perf_counter() if started is None else started
    host = fingerprint.host_fingerprint(ROOT)
    children = run_children(workload, seed, child_count(seconds), trace, started)
    ok, errors = evaluate(children, load_expected().get(workload, {}))
    host["load_end"] = list(os.getloadavg())
    if ok:
        host["numpy"] = ok[0]["numpy"]
        host["kernel_backend"] = ok[0]["backend"]
    metrics: Dict[str, float] = (
        layer_metrics(ok) if trace else end_to_end_metrics(ok)
    )
    metrics["error_rate"] = len(errors) / len(children)
    return {
        "schema": SCHEMA,
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "fingerprint": host,
        "attempted": len(children),
        "failed": len(errors),
        "errors": errors,
        "metrics": metrics,
        "children": children,
    }


def result_line(record: Dict[str, object], spec: Dict[str, object]) -> Dict[str, object]:
    """The contract's last output line for one record.

    A ``--trace 0`` record reports ``spec``'s end-to-end metrics, a
    ``--trace 1`` record its per-layer metrics, each with its unit.
    """
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def summary(record: Dict[str, object], spec: Dict[str, object]) -> str:
    """Human-readable lines: every metric by name and unit, plus error_rate."""
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']} "
             f"children={record['attempted']} failed={record['failed']}"]
    for name, metric in result_line(record, spec)["metrics"].items():
        lines.append(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    lines.append(f"  {'error_rate':<30} {record['metrics']['error_rate']:>14.6g} share")
    for error in record["errors"]:
        lines.append(f"  FAILED seed {error['sim_seed']}: {error['error']}")
    return "\n".join(lines)


def append_record(path: str, record: Dict[str, object]) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def update_digests() -> int:
    """Re-record the default seed's digests for every workload's sub-seeds."""
    digests: Dict[str, Dict[str, str]] = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        for index in range(workloads.SUB_SEEDS):
            seed = workloads.sim_seed(workloads.DEFAULT_SEED, index)
            spec = {"root": ROOT, "workload": name, "sim_seed": seed,
                    "traced": False, "scratch": os.path.join(SCRATCH, "tmp")}
            child = start_child(spec, DEADLINE_S)
            error = checks.check_child(child, None, {})
            if error is not None:
                print(f"{name} seed {seed}: {error}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = child["digest"]
            print(f"{name} seed {seed}: {child['digest']}", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"default_seed": workloads.DEFAULT_SEED, "digests": digests},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    # SIGTERM unwinds like an exception, so the running child's process
    # group is killed on the way out (see start_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload BENCHMARK.json names")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result record to this JSONL file")
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (args.all or args.update_digests or args.workload):
        parser.error("give --workload NAME, --all or --update-digests")
    try:
        preflight()
    except (BenchmarkError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.update_digests:
        return update_digests()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] if args.all else [args.workload]
    records = []
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace),
                             started if not args.all else None)
        except BenchmarkError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 2
        records.append(record)
        if args.record:
            append_record(args.record, record)
        print(summary(record, spec), file=sys.stderr if not args.all else sys.stdout)
    if args.all:
        return 0 if all(r["failed"] == 0 for r in records) else 1
    line = result_line(records[0], spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
