"""Compare two sets of benchmark result records: a parent and a change.

Usage::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records appended by ``perfbench/run.py --record``.  Make
both with the same ``--seconds`` and the same seeds, alternating which
side runs first for each seed; runs of one seed on both sides form a
pair.  For every workload and end-to-end metric the report gives each
side's median and quartiles, the change's share of wins over the pairs,
and a verdict:

* ``too few pairs`` — fewer than ten pairs were run;
* ``gain`` — the change wins at least nine tenths of the pairs (ties
  count for neither), the medians differ by more than the parent's own
  spread (the distance between its quartiles), and the change's share
  of failed child runs is no higher than the parent's;
* ``unresolved`` — either side's spread, as a share of its median,
  exceeds the metric's bound in ``BENCHMARK.json``, unless every change
  run reads better than every parent run;
* ``regression`` — the change's median is worse than the parent's by
  more than the bound;
* ``within bound`` — otherwise.

It also prints per-layer self-time deltas from the traced records, and
flags every output digest that differs between the two sides for the
same workload and simulation seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: A verdict needs at least this many pairs (choosing-metrics, section 8).
MIN_PAIRS = 10


def load_records(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pair_wins(parent: Dict[int, List[float]], change: Dict[int, List[float]],
              better: str) -> Tuple[int, int]:
    """(change wins, pairs) over runs matched by seed, in run order."""
    wins = pairs = 0
    for seed in sorted(set(parent) & set(change)):
        for p, c in zip(parent[seed], change[seed]):
            pairs += 1
            if (c > p) if better == "higher" else (c < p):
                wins += 1
    return wins, pairs


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float, wins: int, pairs: int,
            failed_share: Tuple[float, float]) -> str:
    """The rule stated in the module docstring.

    ``failed_share`` is (parent, change) failed ÷ attempted child runs.
    """
    if pairs < MIN_PAIRS:
        return "too few pairs"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    improvement = sign * (c_med - p_med)
    if (wins >= 0.9 * pairs and improvement > p_q3 - p_q1
            and failed_share[1] <= failed_share[0]):
        return "gain"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if -improvement > bound * abs(p_med):
        return "regression"
    return "within bound"


def _by_workload(records: List[dict], trace: int) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = defaultdict(list)
    for record in records:
        if record["trace"] == trace:
            out[record["workload"]].append(record)
    return out


def _values(records: List[dict], metric: str) -> Dict[int, List[float]]:
    out: Dict[int, List[float]] = defaultdict(list)
    for record in records:
        out[record["seed"]].append(record["metrics"][metric])
    return out


def _failed(runs: List[dict]) -> Tuple[int, int]:
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def end_to_end_rows(parent: List[dict], change: List[dict], spec: dict) -> List[str]:
    rows = [f"{'workload':<14} {'metric':<16} {'parent q1/med/q3':<30} "
            f"{'change q1/med/q3':<30} {'wins':<7} verdict"]
    p_runs, c_runs = _by_workload(parent, 0), _by_workload(change, 0)
    for workload in sorted(set(p_runs) & set(c_runs)):
        failed = {side: _failed(runs) for side, runs in
                  (("parent", p_runs[workload]), ("change", c_runs[workload]))}
        shares = tuple(f / a for f, a in failed.values())
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_by_seed = _values(p_runs[workload], name)
            c_by_seed = _values(c_runs[workload], name)
            p_all = [v for vs in p_by_seed.values() for v in vs]
            c_all = [v for vs in c_by_seed.values() for v in vs]
            wins, pairs = pair_wins(p_by_seed, c_by_seed, metric["better"])
            rows.append(
                f"{workload:<14} {name:<16} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(p_all)):<30} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(c_all)):<30} "
                f"{f'{wins}/{pairs}':<7} "
                f"{verdict(p_all, c_all, metric['better'], metric['bound'], wins, pairs, shares)}"
            )
        for side, (n_failed, attempted) in failed.items():
            rows.append(f"{workload:<14} {'error_rate':<16} {side}: "
                        f"{n_failed}/{attempted} child runs failed")
    return rows


def layer_rows(parent: List[dict], change: List[dict]) -> List[str]:
    rows = [f"{'workload':<14} {'layer metric':<30} {'parent':>10} {'change':>10} {'delta':>10}"]
    p_runs, c_runs = _by_workload(parent, 1), _by_workload(change, 1)
    for workload in sorted(set(p_runs) & set(c_runs)):
        names = sorted(
            n for n in p_runs[workload][0]["metrics"]
            if n.endswith(("self_s", "wait_s", "overhead_pct"))
        )
        for name in names:
            p_med = statistics.median(r["metrics"][name] for r in p_runs[workload])
            c_med = statistics.median(
                r["metrics"].get(name, 0.0) for r in c_runs[workload]
            )
            if p_med == 0.0 and c_med == 0.0:
                continue
            rows.append(f"{workload:<14} {name:<30} {p_med:>10.4f} {c_med:>10.4f} "
                        f"{c_med - p_med:>+10.4f}")
    return rows


def digest_mismatches(parent: List[dict], change: List[dict]) -> List[str]:
    """Every (workload, simulation seed) whose digests differ between sides."""
    def digests(records):
        out = defaultdict(set)
        for record in records:
            for child in record["children"]:
                if child.get("digest"):
                    out[(record["workload"], child["sim_seed"])].add(child["digest"])
        return out

    p_digests, c_digests = digests(parent), digests(change)
    flagged = []
    for workload, seed in sorted(set(p_digests) & set(c_digests)):
        p, c = p_digests[workload, seed], c_digests[workload, seed]
        if p != c:
            flagged.append(f"{workload} seed {seed}: parent {sorted(p)} change {sorted(c)}")
    return flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = load_records(args.parent), load_records(args.change)
    print("\n".join(end_to_end_rows(parent, change, spec)))
    print()
    print("\n".join(layer_rows(parent, change)))
    mismatches = digest_mismatches(parent, change)
    print()
    print(f"output digests differing between sides: {len(mismatches)}")
    for line in mismatches:
        print(f"  DIGEST DIFFERS {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
