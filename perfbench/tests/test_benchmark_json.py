"""BENCHMARK.json agrees with the benchmark code and the contract limits."""

import os
import re
import subprocess
import sys

import run
import workloads
from layers import LAYERS, MOVES

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_workloads():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_match_the_code():
    spec = run.load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == list(run.end_to_end_metrics([]))
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [m["name"] for m in spec["per_layer"]] == list(MOVES)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25


def test_every_layer_has_its_metrics():
    e2e = {m["name"] for m in run.load_spec()["end_to_end"]}
    for layer in LAYERS:
        assert f"{layer.name}.calls" in MOVES
    for move in MOVES.values():
        assert set(move.moves) <= e2e
        assert set(move.on) | set(move.idle) <= set(workloads.WORKLOADS)


def test_fails_without_the_simulator_source(tmp_path):
    """Where only BENCHMARK.json and perfbench/ exist it exits non-zero, silently."""
    subprocess.run(["cp", "-r", run.BENCH_DIR, str(tmp_path / "perfbench")], check=True)
    subprocess.run(["cp", os.path.join(run.ROOT, "BENCHMARK.json"), str(tmp_path)],
                   check=True)
    spec = run.load_spec()
    argv = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                              "--seed", "1", "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
