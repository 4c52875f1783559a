"""The scalar mesoscopic sweep: the oracle of the batched one.

:func:`repro.sim.mesoscopic_vec.run_sweep` is the mesoscopic engine's
only sweep.  It batches same-instant period starts, settles and
Algorithm 1 scoring, and claims to be bit-identical, trace included, to
processing the period/resolve heap one event at a time.
:class:`ScalarMesoscopicSimulator` is that one-event-at-a-time sweep:
every node settles through the switch's ``apply_window`` chunk by chunk
(:func:`settle_to`), decides through its MAC's ``choose_window`` and
resolves its window through :func:`repro.sim.mesoscopic.resolve_window`.
Equivalence tests run it as the reference.

It overrides only the sweep :meth:`MesoscopicSimulator._run_impl` calls
and the final settle, so construction, checkpointing, interruption and
result aggregation are the product's own.
"""

import heapq
import time
from typing import Dict, List

from repro.checkpoint.interrupt import stop_requested
from repro.constants import SECONDS_PER_YEAR
from repro.core import PeriodContext
from repro.sim.mesoscopic import (
    MesoNode,
    MesoscopicSimulator,
    MonthlySample,
    WindowEntry,
    _SweepState,
    resolve_window,
)
from repro.sim.packetlog import PacketRecord


def settle_to(node: MesoNode, now_s: float, extra_demand_j: float = 0.0) -> float:
    """Advance energy state to ``now_s``; returns unmet demand.

    Harvest and sleep demand are applied in coarse chunks through the
    switch; ``extra_demand_j`` (transmission energy) lands in the
    final chunk.  The chunk length comes from the memory profile
    (5 windows exact, 120 windows diet) and keeps the trace small
    while preserving charge/discharge turning points.
    """
    # A window resolution can settle a node slightly past a refresh
    # or end-of-run boundary; later settles clamp to the frontier.
    now_s = max(now_s, node.settled_until_s)
    chunk_s = node.config.settle_chunk_s()
    cursor = node.settled_until_s
    shortfall = 0.0
    while cursor < now_s - 1e-9:
        chunk_end = min(now_s, cursor + chunk_s)
        duration = chunk_end - cursor
        harvested = node.harvester.power_watts(cursor + duration / 2.0) * duration
        demand = node.sleep_watts * duration
        if chunk_end >= now_s - 1e-9:
            demand += extra_demand_j
        result = node.switch.apply_window(
            node.battery, harvested, demand, chunk_end
        )
        shortfall += result.shortfall_j
        cursor = chunk_end
    if now_s <= node.settled_until_s + 1e-9 and extra_demand_j > 0:
        # Settling to the same instant: apply the demand directly.
        result = node.switch.apply_window(
            node.battery, 0.0, extra_demand_j, node.settled_until_s
        )
        shortfall += result.shortfall_j
    node.settled_until_s = max(node.settled_until_s, now_s)
    return shortfall


class ScalarMesoscopicSimulator(MesoscopicSimulator):
    """The mesoscopic engine with its sweep run one heap event at a time."""

    def _sweep(self) -> List[MonthlySample]:
        return self._run_sweep()

    def _run_sweep(self) -> List[MonthlySample]:
        """The scalar reference sweep: one heap event at a time."""
        config = self.config
        window_s = config.window_s
        duration = config.duration_s

        # Global chronological sweep: a heap of period starts plus
        # deferred window resolutions.  All progress lives in the
        # (checkpointable) sweep state; the hot loop works on local
        # aliases and syncs scalars back at snapshot instants only.
        PERIOD = 0
        state = self._sweep_state
        if state is None:
            state = self._sweep_state = _SweepState.initial(self)
        heap = state.heap
        pending_windows = state.pending_windows
        monthly = state.monthly
        seq = state.seq
        next_refresh = state.next_refresh
        month_s = SECONDS_PER_YEAR / 12.0
        next_month = state.next_month
        month_index = state.month_index
        iterations = 0

        while heap and heap[0][0] <= duration:
            if heap[0][0] >= state.next_checkpoint:
                state.seq = seq
                state.next_refresh = next_refresh
                state.next_month = next_month
                state.month_index = month_index
                self._checkpoint_before(heap[0][0], state)
            iterations += 1
            if iterations % 256 == 0 and stop_requested():
                state.seq = seq
                state.next_refresh = next_refresh
                state.next_month = next_month
                state.month_index = month_index
                self._interrupted(heap[0][0])
            time_s, kind, _, payload = heapq.heappop(heap)
            self._events_executed += 1

            while next_refresh <= time_s:
                self._refresh_degradation(next_refresh)
                next_refresh += config.dissemination_interval_s
            while next_month <= time_s:
                month_index += 1
                values = [
                    n.metrics.degradation for n in self.nodes.values()
                ]
                monthly.append(
                    MonthlySample(
                        month=month_index,
                        max_degradation=max(values),
                        mean_degradation=sum(values) / len(values),
                    )
                )
                next_month += month_s

            if kind == PERIOD:
                node = self.nodes[payload]
                self._start_period(node, time_s, pending_windows, heap, seq)
                seq += 1
                next_start = time_s + node.placement.period_s
                if next_start <= duration:
                    heapq.heappush(
                        heap, (next_start, PERIOD, seq, node.node_id)
                    )
                    seq += 1
            else:  # RESOLVE at the end of absolute window `payload`
                entries = pending_windows.pop(payload, [])
                if entries:
                    self._resolve(entries, payload, window_s)
            if len(heap) > self._peak_heap:
                self._peak_heap = len(heap)

        state.seq = seq
        state.next_refresh = next_refresh
        state.next_month = next_month
        state.month_index = month_index
        # Flush any windows scheduled past the horizon.
        for window_index, entries in sorted(pending_windows.items()):
            self._resolve(entries, window_index, window_s)
        pending_windows.clear()
        return monthly

    def _start_period(
        self,
        node: MesoNode,
        now_s: float,
        pending_windows: Dict[int, List[WindowEntry]],
        heap: List,
        seq: int,
    ) -> None:
        settle_to(node, now_s)
        node.metrics.record_generated()
        windows = node.windows_per_period
        forecast = node.forecaster.forecast(now_s, self.config.window_s, windows)
        context = PeriodContext(
            battery_energy_j=node.battery.stored_j,
            green_forecast_j=forecast,
            nominal_tx_energy_j=node.attempt_energy_j,
            period_start_s=now_s,
        )
        decision = node.mac.choose_window(context)
        if not decision.success or decision.window_index is None:
            node.metrics.record_failure(0, 0.0, energy_drop=True)
            if self._trace is not None:
                self._trace.emit(
                    now_s,
                    "packet",
                    "packet.dropped",
                    severity="warning",
                    node_id=node.node_id,
                    reason="no_feasible_window",
                    soc=node.battery.soc,
                )
            if self.packet_log is not None:
                self.packet_log.append(
                    PacketRecord(
                        node_id=node.node_id,
                        generated_at_s=now_s,
                        window_index=-1,
                        attempts=0,
                        delivered=False,
                        latency_s=node.placement.period_s,
                        utility=0.0,
                        energy_drop=True,
                    )
                )
            return
        node.metrics.record_window(decision.window_index)
        if self._trace is not None and self._trace.wants("packet", "debug"):
            self._trace.emit(
                now_s,
                "packet",
                "packet.generated",
                severity="debug",
                node_id=node.node_id,
                window_index=decision.window_index,
                soc=node.battery.soc,
            )
        tx_time = now_s + decision.window_index * self.config.window_s
        absolute_window = int(tx_time // self.config.window_s)
        entry = WindowEntry(
            node=node,
            immediate=not self.config.use_window_selection,
            window_index_in_period=decision.window_index,
            period_start_s=now_s,
            decision=decision,
            offset_in_window_s=tx_time - absolute_window * self.config.window_s,
        )
        bucket = pending_windows.setdefault(absolute_window, [])
        bucket.append(entry)
        self._export_intent(entry, absolute_window)
        if len(bucket) == 1:
            resolve_time = (absolute_window + 1) * self.config.window_s
            heapq.heappush(heap, (resolve_time, 1, seq, absolute_window))

    def _resolve(
        self, entries: List[WindowEntry], window_index: int, window_s: float
    ) -> None:
        outcomes = resolve_window(
            entries,
            window_s=window_s,
            channel_count=self.config.channel_count,
            omega=self.config.omega,
            max_retransmissions=self.config.max_retransmissions,
            rng=self.rng,
            static_attempts=self._statics_for(window_index),
        )
        window_start = window_index * window_s
        for entry in entries:
            node = entry.node
            outcome = outcomes[node.node_id]
            decision = entry.decision  # type: ignore[attr-defined]
            demand = outcome.attempts * node.attempt_energy_j
            settle_time = max(
                window_start + outcome.finish_offset_s, node.settled_until_s
            )
            shortfall = settle_to(node, settle_time, extra_demand_j=demand)
            if shortfall > demand * 0.5:
                # The battery could not fund the attempts: brown-out.
                node.metrics.record_failure(
                    retransmissions=outcome.attempts - 1,
                    tx_energy_j=0.0,
                    energy_drop=True,
                )
                if self._trace is not None:
                    self._trace.emit(
                        settle_time,
                        "packet",
                        "packet.dropped",
                        severity="warning",
                        node_id=node.node_id,
                        reason="brownout",
                        soc=node.battery.soc,
                    )
                if self.packet_log is not None:
                    self.packet_log.append(
                        PacketRecord(
                            node_id=node.node_id,
                            generated_at_s=entry.period_start_s,
                            window_index=entry.window_index_in_period,
                            attempts=0,
                            delivered=False,
                            latency_s=node.placement.period_s,
                            utility=0.0,
                            energy_drop=True,
                        )
                    )
                node.mac.observe_result(
                    entry.window_index_in_period,
                    min(outcome.attempts - 1, self.config.max_retransmissions),
                    demand,
                )
                continue
            tx_metric = outcome.attempts * node.tx_energy_j
            retx = outcome.attempts - 1
            if outcome.success:
                # Jittered period starts are bucketed onto the global
                # window grid, so the grid window can begin slightly
                # before the period; clamp to the physical minimum.
                latency = max(
                    node.airtime_s + self.ACK_DELAY_S,
                    (window_start - entry.period_start_s)
                    + outcome.finish_offset_s
                    + self.ACK_DELAY_S,
                )
                node.metrics.record_delivery(
                    retransmissions=retx,
                    tx_energy_j=tx_metric,
                    utility=decision.utility,
                    latency_s=latency,
                )
            else:
                node.metrics.record_failure(
                    retransmissions=retx, tx_energy_j=tx_metric
                )
            node.mac.observe_result(entry.window_index_in_period, retx, demand)
            if self._trace is not None:
                self._trace.emit(
                    window_start + outcome.finish_offset_s,
                    "packet",
                    "packet.finished",
                    severity="info" if outcome.success else "warning",
                    node_id=node.node_id,
                    delivered=outcome.success,
                    window_index=entry.window_index_in_period,
                    retransmissions=retx,
                    battery_energy_j=node.battery.stored_j,
                )
            if self.packet_log is not None:
                self.packet_log.append(
                    PacketRecord(
                        node_id=node.node_id,
                        generated_at_s=entry.period_start_s,
                        window_index=entry.window_index_in_period,
                        attempts=outcome.attempts,
                        delivered=outcome.success,
                        latency_s=latency if outcome.success else node.placement.period_s,
                        utility=decision.utility if outcome.success else 0.0,
                        energy_drop=False,
                    )
                )
            node.forecaster.observe(
                window_start,
                window_s,
                node.harvester.window_energy_j(window_start, window_s),
            )

    def _refresh_degradation(self, now_s: float) -> None:
        started = time.perf_counter()
        compact = self.config.effective_compact_trace()
        exempt = self.config.effective_sample_nodes() if compact else None
        for node in self.nodes.values():
            settle_to(node, now_s)
            degradation = node.battery.refresh_degradation()
            if compact and (exempt is None or node.node_id not in exempt):
                node.battery.trace.compact_tail()
            node.metrics.degradation = degradation
            breakdown = node.battery.last_breakdown
            if breakdown is not None:
                node.metrics.cycle_aging = breakdown.cycle
                node.metrics.calendar_aging = breakdown.calendar
            self.service.set_degradation(node.node_id, degradation)
        for node in self.nodes.values():
            node.mac.set_normalized_degradation(
                self.service.normalized_degradation(node.node_id)
            )
        self._record_refresh_wall(now_s, time.perf_counter() - started)
        if self._trace is not None:
            self._trace.emit(
                now_s,
                "wu",
                "wu.recomputed",
                severity="debug",
                nodes=len(self.nodes),
            )

    def _finalize(self, duration_s: float) -> None:
        started = time.perf_counter()
        for node in self.nodes.values():
            settle_to(node, duration_s)
            degradation = node.battery.refresh_degradation()
            node.metrics.degradation = degradation
            breakdown = node.battery.last_breakdown
            if breakdown is not None:
                node.metrics.cycle_aging = breakdown.cycle
                node.metrics.calendar_aging = breakdown.calendar
            node.metrics.final_soc = node.battery.soc
        self._record_refresh_wall(duration_s, time.perf_counter() - started)
