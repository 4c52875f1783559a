"""Output checks: a digest of the run's per-node results, and invariants.

The digest covers every field of every node's ``NodeMetrics`` (sorted by
node id) plus the engine's ``events_executed`` and ``peak_queue_depth``,
so any change in simulated behaviour changes it.  The invariants hold
for every seed and need no recorded answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Mapping, Optional


def _plain(value):
    if isinstance(value, Mapping):
        return sorted((str(k), _plain(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    return value


def metrics_digest(nodes: Mapping[int, object], events: int, peak_queue_depth: int) -> str:
    """SHA-256 over sorted per-node metrics, event count and queue peak."""
    rows = []
    for node_id in sorted(nodes):
        metrics = nodes[node_id]
        rows.append([
            node_id,
            [[f.name, _plain(getattr(metrics, f.name))]
             for f in dataclasses.fields(metrics)],
        ])
    payload = json.dumps(
        {"nodes": rows, "events": events, "peak_queue_depth": peak_queue_depth},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def invariant_errors(nodes: Mapping[int, object], soc_cap: float) -> List[str]:
    """Seed-independent bookkeeping bounds; returns one message per breach."""
    errors = []
    for node_id in sorted(nodes):
        m = nodes[node_id]
        if m.packets_generated < m.packets_delivered + m.packets_dropped_energy:
            errors.append(
                f"node {node_id}: generated {m.packets_generated} < delivered "
                f"{m.packets_delivered} + dropped {m.packets_dropped_energy}"
            )
        if not 0.0 <= m.final_soc <= soc_cap:
            errors.append(f"node {node_id}: final_soc {m.final_soc!r} outside [0, {soc_cap}]")
        if not m.degradation >= 0.0:
            errors.append(f"node {node_id}: degradation {m.degradation!r} < 0")
    return errors


def check_child(
    child: Dict[str, object],
    expected: Optional[str],
    seen: Dict[int, str],
) -> Optional[str]:
    """Why one child run failed, or None when its output is correct.

    ``expected`` is the recorded digest for the child's simulation seed
    (None when none is recorded).  ``seen`` maps simulation seeds to the
    first digest this benchmark run produced for them; a repeat of the
    same seed must reproduce it.
    """
    if child.get("error"):
        return str(child["error"])
    errors = child.get("invariant_errors") or []
    if errors:
        return f"invariants: {errors[0]} ({len(errors)} breach(es))"
    digest = child.get("digest")
    seed = child["sim_seed"]
    if expected is not None and digest != expected:
        return f"digest {digest} != recorded {expected} for seed {seed}"
    first = seen.setdefault(seed, digest)
    if digest != first:
        return f"digest {digest} != {first} from an earlier run of seed {seed}"
    return None
