"""Exact-engine batched period pass: batched drain ≡ one-at-a-time drain.

The batched period handler must reproduce the scalar reference run bit
for bit — same events in the same order, same RNG draws, same metrics —
for every MAC policy and forecaster family, because it is the engine's
only period handler.  The reference runs are the one-at-a-time oracle
(:mod:`tests.sim.exact_reference`).
"""

import pickle

from repro.faults import FaultPlan, NodeReboot
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator, run_simulation
from repro.sim.events import EventQueue
from tests.sim.exact_reference import ScalarSimulator


BASE = dict(
    node_count=24,
    duration_s=4 * 3600.0,
    seed=11,
    synchronized_start=True,
)


def run_one_at_a_time(config):
    """Run ``config`` through the one-at-a-time oracle."""
    return ScalarSimulator(config).run()


def _assert_identical(config):
    ref = run_one_at_a_time(config)
    fast = run_simulation(config)
    assert fast.events_executed == ref.events_executed
    assert fast.uplinks_received == ref.uplinks_received
    assert fast.disseminations_sent == ref.disseminations_sent
    assert set(fast.metrics.nodes) == set(ref.metrics.nodes)
    for node_id, expected in ref.metrics.nodes.items():
        assert fast.metrics.nodes[node_id] == expected
    return ref, fast


class TestBatchedRunEquivalence:
    def test_blam_policy(self):
        _assert_identical(SimulationConfig(**BASE))

    def test_lorawan_policy(self):
        _assert_identical(SimulationConfig(**BASE).as_lorawan())

    def test_threshold_only_policy(self):
        _assert_identical(SimulationConfig(**BASE).as_hc(0.5))

    def test_same_period_cohort(self):
        # Every node in one whole-minute cohort: the largest batches the
        # heap can produce, every period a single vector pass.
        _assert_identical(
            SimulationConfig(**{**BASE, "period_range_s": (1800.0, 1800.0)})
        )

    def test_noisy_forecaster(self):
        # Per-node forecast RNG streams must be drawn in pop order.
        _assert_identical(
            SimulationConfig(**BASE, forecaster="noisy", forecast_sigma=0.2)
        )

    def test_staggered_starts_degenerate_batches(self):
        # Unsynchronized offsets are continuous uniforms: cohorts are
        # single nodes, each scored as a one-row batch.
        _assert_identical(
            SimulationConfig(**{**BASE, "synchronized_start": False})
        )

    def test_with_fault_plan(self):
        plan = FaultPlan(
            node_reboots=(
                NodeReboot(node_id=3, time_s=3600.0),
                NodeReboot(node_id=7, time_s=7200.0),
            )
        )
        _assert_identical(
            SimulationConfig(**BASE, faults=plan, w_u_ttl_s=3600.0)
        )


class TestBatchingGuards:
    def test_enabled_by_default(self):
        sim = Simulator(SimulationConfig(**BASE))
        assert sim.queue.batch_kinds == frozenset({"period"})
        assert sim.queue.dispatch_batch is not None

    def test_queue_pickle_drops_hook_keeps_kinds(self):
        sim = Simulator(SimulationConfig(**BASE))
        restored = pickle.loads(pickle.dumps(sim.queue))
        assert restored.dispatch is None
        assert restored.dispatch_batch is None
        assert restored.batch_kinds == frozenset({"period"})


class TestQueueBatchDrain:
    def test_groups_consecutive_same_key_events(self):
        queue = EventQueue()
        seen = []
        queue.dispatch = lambda kind, args: seen.append(("one", kind, args))
        queue.dispatch_batch = lambda kind, batch: seen.append(
            ("batch", kind, list(batch))
        )
        queue.batch_kinds = frozenset({"period"})
        queue.schedule_event(1.0, "period", "a")
        queue.schedule_event(1.0, "period", "b")
        queue.schedule_event(1.0, "refresh", "r", priority=-1)
        queue.schedule_event(2.0, "period", "c")
        assert queue.run_until(5.0)
        assert seen == [
            ("one", "refresh", ("r",)),
            ("batch", "period", [("a",), ("b",)]),
            ("one", "period", ("c",)),
        ]

    def test_interposed_event_splits_the_run(self):
        # A differently keyed event between two batchable ones (by
        # sequence) must execute at its exact scalar-drain position.
        queue = EventQueue()
        seen = []
        queue.dispatch = lambda kind, args: seen.append((kind, args[0]))
        queue.dispatch_batch = lambda kind, batch: seen.append(
            (kind, [args[0] for args in batch])
        )
        queue.batch_kinds = frozenset({"period"})
        queue.schedule_event(1.0, "period", "a")
        queue.schedule_event(1.0, "attempt", "x")
        queue.schedule_event(1.0, "period", "b")
        queue.schedule_event(1.0, "period", "c")
        assert queue.run_until(5.0)
        assert seen == [
            ("period", "a"),
            ("attempt", "x"),
            ("period", ["b", "c"]),
        ]

    def test_cancelled_events_are_skipped_inside_a_run(self):
        queue = EventQueue()
        seen = []
        queue.dispatch = lambda kind, args: seen.append(args[0])
        queue.dispatch_batch = lambda kind, batch: seen.append(
            [args[0] for args in batch]
        )
        queue.batch_kinds = frozenset({"period"})
        queue.schedule_event(1.0, "period", "a")
        handle = queue.schedule_event(1.0, "period", "dead")
        queue.schedule_event(1.0, "period", "b")
        handle.cancel()
        assert queue.run_until(5.0)
        assert seen == [["a", "b"]]

    def test_batch_events_count_toward_stop_check(self):
        queue = EventQueue()
        queue.dispatch = lambda kind, args: None
        queue.dispatch_batch = lambda kind, batch: None
        queue.batch_kinds = frozenset({"period"})
        for _ in range(10):
            queue.schedule_event(1.0, "period", "n")
        calls = []
        assert not queue.run_until(
            5.0, stop_check=lambda: calls.append(1) or True, stop_every=4
        )
        # One batch of 10 crosses the stop_every=4 boundary once.
        assert len(calls) == 1

    def test_unbatched_kind_uses_plain_step(self):
        queue = EventQueue()
        seen = []
        queue.dispatch = lambda kind, args: seen.append(args[0])
        queue.batch_kinds = frozenset()
        queue.schedule_event(1.0, "period", "a")
        queue.schedule_event(1.0, "period", "b")
        assert queue.run_until(5.0)
        assert seen == ["a", "b"]


def test_batched_pass_reports_to_hot_profiler():
    from repro.obs import hot_profiler

    prof = hot_profiler()
    prof.reset()
    prof.enable()
    try:
        run_simulation(
            SimulationConfig(
                **{**BASE, "node_count": 8, "duration_s": 3600.0}
            )
        )
    finally:
        prof.disable()
    stats = prof.stats
    assert "engine.period_batch" in stats
    assert stats["engine.period_batch"]["calls"] >= 1
    prof.reset()
