"""The exact engine's one-at-a-time period drain: the batched pass's oracle.

The exact engine decides each same-instant cohort of ``period`` events in
one batched pass (:meth:`repro.sim.engine.Simulator._on_period_batch`):
settle and forecast per node, one vector Algorithm 1 scoring, then
packet generation and scheduling per node.  It claims to be
bit-identical, trace and packet log included, to handling the period
events one at a time.  :class:`ScalarSimulator` is that drain: the queue
never batches, and every period event settles, forecasts and decides
through the MAC's scalar ``choose_window`` (:func:`start_period`) before
the next one is popped.  Equivalence tests run it as the reference.

It overrides only the period handling, so construction, the other
handlers, checkpointing and result aggregation are the product's own.
"""

from typing import Optional

from repro.core import BatteryLifespanAwareMac, PeriodContext
from repro.sim.engine import Simulator
from repro.sim.node import EndDevice


def start_period(node: EndDevice, now_s: float) -> Optional[float]:
    """Generate this period's packet and run the MAC decision.

    Returns the absolute time of the first transmission attempt, or
    None when the MAC returned FAIL (packet dropped for energy).
    """
    forecast = node.begin_period(now_s)
    context = PeriodContext(
        battery_energy_j=node.battery.stored_j,
        green_forecast_j=forecast,
        nominal_tx_energy_j=node.attempt_energy_j,
        period_start_s=now_s,
    )
    decision = node.mac.choose_window(context)
    return node.finish_period_decision(now_s, decision)


class ScalarSimulator(Simulator):
    """The exact engine with its period events handled one at a time."""

    def _bind_batch_dispatch(self) -> None:
        self.queue.dispatch_batch = None
        self.queue.batch_kinds = frozenset()

    def _dispatch(self, kind: str, args: tuple) -> None:
        if kind == "period":
            self._on_period(*args)
        else:
            super()._dispatch(kind, args)

    def _on_period(self, node: EndDevice) -> None:
        self._events_executed += 1
        now = self.queue.now_s
        if node.packet is not None:
            # Previous packet still in flight at its deadline: fail it.
            node.finish_packet(now, delivered=False, latency_s=node.period_s)
        if (
            self.injector is not None
            and isinstance(node.mac, BatteryLifespanAwareMac)
            and node.mac.weight_is_stale(now)
        ):
            self.injector.record_stale_weight_period()
        first_attempt = start_period(node, now)
        if first_attempt is not None:
            if self.injector is not None:
                # Clock skew displaces the node's view of the window
                # boundary (never before the packet exists).
                first_attempt = self.injector.skew_attempt(
                    node.node_id, first_attempt, now
                )
            packet = node.packet
            self.queue.schedule_event(first_attempt, "attempt", node, packet)
        self._schedule_period(node, now + node.period_s)
