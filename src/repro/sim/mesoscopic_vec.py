"""The mesoscopic simulator's event sweep, batched.

The sweep pops the period/resolve heap of :class:`MesoscopicSimulator`
and executes it with three batched kernels:

* **Cohort period starts** — sampling periods are whole minutes and
  synchronized deployments share exact float period-start timestamps, so
  all PERIOD events at one instant are popped together and settled,
  forecast and scored as arrays.  A PERIOD event never enqueues another
  event at its own timestamp (resolutions and next periods land strictly
  later), so the batch pop sees exactly the events a one-at-a-time loop
  would.
* **Batched settling** — chunk plans for a whole batch are evaluated
  through one shared :meth:`SolarModel.power_watts_batch` call plus
  per-node shading gathers; each node's chunks then go through one call
  of the fused settle pass :func:`repro.kernels.settle.recurrence`
  (switch, battery, SoC trace and rainflow in the scalar operation
  order), the same pass the exact engine settles through.
* **Batched Algorithm 1** — :func:`repro.core.mac.batch_choose_windows_mixed`
  scores one node × window matrix per cohort, rows padded to the widest
  ``|T|``.

Results are bit-identical to processing one heap event at a time: every
random draw comes from the same generator in the same order, and every
float operation follows the scalar operand order (the shared-RNG window
resolver is reused verbatim for contended windows).  The test suite
keeps that one-event-at-a-time sweep as its oracle
(``tests/sim/meso_reference.py``).

With tracing on, the sweep emits the same events in the same order as
the oracle: batched stages only defer per-node emissions (brown-outs
returned by the settle pass, ``window.selected`` rows of the batch
scorer, packet events) to the node's place in the per-node loop.
Untraced runs pay one ``is not None`` check per emission point.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..checkpoint.interrupt import stop_requested
from ..constants import SECONDS_PER_YEAR
from ..core.mac import batch_choose_windows_mixed
from ..kernels import contention as kcontention
from ..kernels import settle as ksettle
from ..kernels import shading as kshading
from .mesoscopic import (
    MesoNode,
    MonthlySample,
    WindowEntry,
    WindowOutcome,
    _SweepState,
    resolve_window,
)
from .packetlog import PacketRecord


class _FastDecision:
    """Minimal stand-in for :class:`WindowDecision` in window entries.

    Resolution only reads ``decision.utility``; carrying the single
    float avoids materializing the per-window score lists the batch
    scorer already holds as matrices.
    """

    __slots__ = ("utility",)

    def __init__(self, utility: float) -> None:
        self.utility = utility


# --------------------------------------------------------------- settling


def _settle_items(
    items: Sequence[Tuple[MesoNode, float, float]],
    shared_solar,
    chunk_s: float,
    brownouts: Optional[List[list]] = None,
) -> List[float]:
    """Settle ``(node, time, extra_demand)`` items; returns shortfalls.

    Chunk plans for every item are laid out first, the shared solar
    power is evaluated once for all chunk midpoints, then each node's
    chunks go through one fused settle pass.
    Cross-node work is order-independent (each node only touches its own
    battery/harvester state), so batching preserves scalar results as
    long as one node appears at most once per call.

    A traced caller passes a ``brownouts`` list: one list per item is
    appended to it, holding the :meth:`SoftwareDefinedSwitch.report_brownout`
    arguments of each brown-out chunk in chunk order, for the caller to
    replay (:func:`_replay_brownouts`) at the item's place in the event
    sequence.
    """
    plans = []
    mids_all: List[float] = []
    for node, now_s, extra in items:
        # A window resolution can settle a node slightly past a refresh
        # or end-of-run boundary; later settles clamp to the frontier.
        now_s = max(now_s, node.settled_until_s)
        cursor = node.settled_until_s
        ends: List[float] = []
        durations: List[float] = []
        while cursor < now_s - 1e-9:
            chunk_end = min(now_s, cursor + chunk_s)
            duration = chunk_end - cursor
            ends.append(chunk_end)
            durations.append(duration)
            mids_all.append(cursor + duration / 2.0)
            cursor = chunk_end
        plans.append((node, now_s, extra, ends, durations))
    if mids_all:
        mids_arr = np.array(mids_all)
        solar_all = shared_solar.power_watts_batch(mids_arr)
        # One shading gather per node into a shared buffer, then a
        # single (solar × shading) × η expression for the whole batch
        # — elementwise identical to Harvester.power_watts per chunk.
        # Night midpoints (solar == 0) skip the gather entirely: zero
        # panel output multiplies to an exact 0.0 whatever the factor,
        # and the factor is a pure function of its grid index, so the
        # skipped draws cannot perturb later values.
        shade_all = np.ones(mids_arr.size)
        first = items[0][0].harvester
        if first.shading_sigma != 0.0:
            day = solar_all != 0.0
            if day.any():
                grid = np.floor_divide(mids_arr, first.shading_step_s).astype(
                    np.int64
                )
                pos = 0
                for node, _, _, ends, _ in plans:
                    count = len(ends)
                    if count:
                        mask = day[pos : pos + count]
                        if mask.any():
                            shade_all[pos : pos + count][mask] = kshading.gather(
                                node.harvester, grid[pos : pos + count][mask]
                            )
                        pos += count
        powers_all = ((solar_all * shade_all) * first.efficiency).tolist()
    else:
        powers_all = []
    pos = 0
    shortfalls: List[float] = []
    for node, now_s, extra, ends, durations in plans:
        count = len(ends)
        powers = powers_all[pos : pos + count]
        pos += count
        if not count and extra > 0:
            # Settling to the same instant: one zero-length chunk applies
            # the demand directly (the switch's zero-harvest deficit).
            ends, durations, powers = [node.settled_until_s], [0.0], [0.0]
        shortfall = 0.0
        events = ()
        if ends:
            shortfall, _, events = ksettle.recurrence(
                ends,
                durations,
                powers,
                node.sleep_watts,
                extra,
                node.battery,
                node.switch.soc_cap,
            )
        if brownouts is not None:
            # The switch's (demand, harvest) of each brown-out chunk; the
            # last chunk's demand carries the extra (transmission) energy.
            last = len(ends) - 1
            brownouts.append([
                (
                    ends[i],
                    unmet,
                    node.sleep_watts * durations[i] + extra
                    if i == last
                    else node.sleep_watts * durations[i],
                    powers[i] * durations[i],
                    soc,
                )
                for i, unmet, soc in events
            ])
        node.settled_until_s = max(node.settled_until_s, now_s)
        shortfalls.append(shortfall)
    return shortfalls


def _replay_brownouts(node: MesoNode, brownouts: list) -> None:
    """Publish one settle's brown-outs through the node's switch."""
    for args in brownouts:
        node.switch.report_brownout(*args)


# ------------------------------------------------------------ period starts


def _start_period_batch(
    sim,
    batch: List[MesoNode],
    now_s: float,
    pending_windows: Dict[int, List[WindowEntry]],
    heap: List,
    seq: int,
    shared_solar,
    duration: float,
) -> int:
    """Process all PERIOD events sharing one timestamp; returns new seq.

    Stages (settle → forecast → decide → bookkeeping) run batch-wide,
    but per-node effects happen in batch order — the scalar pop order —
    so window-bucket append order, heap sequence numbers and every
    per-node RNG stream match the scalar sweep exactly.
    """
    config = sim.config
    window_s = config.window_s
    trace = sim._trace
    brownouts = [] if trace is not None else None
    _settle_items(
        [(node, now_s, 0.0) for node in batch],
        shared_solar,
        config.settle_chunk_s(),
        brownouts,
    )
    for node in batch:
        node.metrics.record_generated()

    counts = [node.windows_per_period for node in batch]
    if config.use_window_selection:
        max_count = max(counts)
        mids = (now_s + np.arange(max_count) * window_s) + window_s / 2.0
        solar_powers = shared_solar.power_watts_batch(mids)
        if config.forecaster == "oracle":
            # Oracle forecasts are the harvester's true energies; the
            # whole cohort shares the solar vector, so only the per-node
            # shading gather remains before one matrix product with the
            # exact ``((solar × shading) × η) × window`` operand order of
            # ``window_energies_batch``.  Night windows (zero solar)
            # multiply to an exact 0.0 whatever the factor, so their
            # shading draws are skipped (pure function of the index —
            # skipping cannot perturb later values).
            first = batch[0].harvester
            shade = np.ones((len(batch), max_count))
            if first.shading_sigma != 0.0:
                day = solar_powers != 0.0
                if day.any():
                    grid = np.floor_divide(mids, first.shading_step_s).astype(
                        np.int64
                    )
                    for i, node in enumerate(batch):
                        mask = day[: counts[i]]
                        if mask.any():
                            shade[i, : counts[i]][mask] = kshading.gather(
                                node.harvester, grid[: counts[i]][mask]
                            )
            green = (
                (solar_powers[None, :] * shade) * first.efficiency
            ) * window_s
        else:
            # Rows are padded to the widest |T|; the scorer masks the
            # padding infeasible, so the pad values are never read.
            green = np.zeros((len(batch), max_count))
            for i, (node, count) in enumerate(zip(batch, counts)):
                green[i, :count] = node.forecaster.forecast_batch(
                    now_s, window_s, count, solar_powers=solar_powers[:count]
                )
        # One padded scoring call for the whole batch: rows carry their
        # own |T| (per-row utilities, feasibility masked past counts).
        decisions: Dict[int, Tuple[bool, int, float]] = {}
        result = batch_choose_windows_mixed(
            [node.mac for node in batch],
            np.array([node.battery.stored_j for node in batch]),
            green,
            [node.attempt_energy_j for node in batch],
            counts,
            [node.mac.effective_degradation(now_s) for node in batch],
        )
        utilities = result.chosen_utilities()
        for i in range(len(batch)):
            decisions[i] = (
                bool(result.success[i]),
                int(result.window_index[i]),
                float(utilities[i]),
            )
    else:
        # ALOHA / threshold-only: window 0, always "scheduled"; the
        # linear utility of window 0 is exactly 1.0 for any |T|, and the
        # forecast is not consulted (no estimator/RNG side effects).
        decisions = {i: (True, 0, 1.0) for i in range(len(batch))}

    if trace is not None:
        trace_window = config.use_window_selection and trace.wants(
            "window", "debug"
        )
        trace_generated = trace.wants("packet", "debug")
    remaining = len(batch)
    for i, node in enumerate(batch):
        success, window_index, utility = decisions[i]
        if trace is not None:
            _replay_brownouts(node, brownouts[i])
            if trace_window:
                node.mac.emit_selection(
                    now_s,
                    result.row(i, counts[i]),
                    float(result.weights[i]),
                    node.battery.stored_j,
                )
        if not success:
            node.metrics.record_failure(0, 0.0, energy_drop=True)
            if trace is not None:
                trace.emit(
                    now_s,
                    "packet",
                    "packet.dropped",
                    severity="warning",
                    node_id=node.node_id,
                    reason="no_feasible_window",
                    soc=node.battery.soc,
                )
            if sim.packet_log is not None:
                sim.packet_log.append(
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
        else:
            node.metrics.record_window(window_index)
            if trace is not None and trace_generated:
                trace.emit(
                    now_s,
                    "packet",
                    "packet.generated",
                    severity="debug",
                    node_id=node.node_id,
                    window_index=window_index,
                    soc=node.battery.soc,
                )
            tx_time = now_s + window_index * window_s
            absolute_window = int(tx_time // window_s)
            entry = WindowEntry(
                node=node,
                immediate=not config.use_window_selection,
                window_index_in_period=window_index,
                period_start_s=now_s,
                decision=_FastDecision(utility),
                offset_in_window_s=tx_time - absolute_window * window_s,
            )
            bucket = pending_windows.setdefault(absolute_window, [])
            bucket.append(entry)
            sim._export_intent(entry, absolute_window)
            if len(bucket) == 1:
                resolve_time = (absolute_window + 1) * window_s
                heapq.heappush(heap, (resolve_time, 1, seq, absolute_window))
        seq += 1
        next_start = now_s + node.placement.period_s
        if next_start <= duration:
            heapq.heappush(heap, (next_start, 0, seq, node.node_id))
            seq += 1
        # The scalar loop checks the peak after each event; at that point
        # the still-unprocessed cohort events would sit in its heap.
        remaining -= 1
        virtual_depth = len(heap) + remaining
        if virtual_depth > sim._peak_heap:
            sim._peak_heap = virtual_depth
    return seq


# --------------------------------------------------------------- resolution

#: Below this many participants (entries + statics) a window resolves
#: through the scalar reference resolver — same draws, less overhead.
_SMALL_RESOLVE_LIMIT = 4


def _resolve_single(entry: WindowEntry, window_s: float, config, rng) -> WindowOutcome:
    """Resolve an uncontended window without the pairwise machinery.

    Draw-for-draw identical to :func:`resolve_window` with one entry: a
    lone attempt succeeds iff any gateway hears the node above
    sensitivity (no interferers, and ω ≥ 1 always admits one signal);
    an out-of-range node burns its full retry budget, consuming the
    same backoff/channel draws.
    """
    node = entry.node
    airtime = node.airtime_s
    if entry.immediate:
        offset = entry.offset_in_window_s
    else:
        offset = rng.uniform(0.0, max(1e-6, window_s - airtime))
    rng.randrange(config.channel_count)
    end = offset + airtime
    if node.rssi_dbm >= node.sensitivity_dbm:
        return WindowOutcome(attempts=1, success=True, finish_offset_s=end)
    for _ in range(config.max_retransmissions):
        backoff = 2.0 + rng.uniform(1.0, 3.0)
        rng.randrange(config.channel_count)
        end = (end + backoff) + airtime
    return WindowOutcome(
        attempts=config.max_retransmissions + 1,
        success=False,
        finish_offset_s=end,
    )


def _resolve_window_vec(
    entries: List[WindowEntry],
    window_s: float,
    channel_count: int,
    omega: int,
    max_retransmissions: int,
    rng,
    capture_threshold_db: float = 6.0,
    static_attempts: Sequence = (),
) -> Dict[int, WindowOutcome]:
    """Array twin of :func:`resolve_window` (same draws, same bits).

    The scalar resolver interleaves no randomness with its pairwise
    scans: all round-0 offsets/channels are drawn first (entry order) and
    retry backoffs are drawn per round (start-sorted order), so the
    draws can be replicated verbatim while the O(batch × universe)
    overlap/concurrency/capture scan runs through the
    :mod:`repro.kernels.contention` round kernel.  The RNG draws stay
    here, in Python, in scalar order; the kernel only consumes the
    drawn placements.

    Callers must ensure entries reference distinct nodes and identical
    gateway counts; :func:`_resolve_batch` checks both.
    """
    k = len(entries)
    nodes = [entry.node for entry in entries]
    airtimes = [node.airtime_s for node in nodes]
    ctx = kcontention.ResolveContext(
        nodes, static_attempts, omega, capture_threshold_db
    )

    # Round-0 draws, exactly as the scalar entry loop makes them.
    starts0 = np.empty(k)
    chans0 = np.empty(k, dtype=np.int64)
    for i, entry in enumerate(entries):
        if entry.immediate:
            starts0[i] = entry.offset_in_window_s
        else:
            starts0[i] = rng.uniform(0.0, max(1e-6, window_s - airtimes[i]))
        chans0[i] = rng.randrange(channel_count)

    pend_starts = starts0
    pend_ends = starts0 + np.array(airtimes)
    pend_chans = chans0
    pend_entry = np.arange(k)
    pend_att = np.zeros(k, dtype=np.int64)

    # Universe of already-resolved attempts, in scalar emission order.
    res_starts: List[float] = []
    res_ends: List[float] = []
    res_chans: List[int] = []
    res_entry: List[int] = []
    per_entry_items: List[List[Tuple[int, float, bool]]] = [[] for _ in range(k)]

    while pend_starts.size:
        order = np.argsort(pend_starts, kind="stable")
        b_starts = pend_starts[order]
        b_ends = pend_ends[order]
        b_chans = pend_chans[order]
        b_entry = pend_entry[order]
        b_att = pend_att[order]
        kb = b_starts.size
        nres = len(res_starts)
        if nres:
            u_starts = np.concatenate([res_starts, b_starts])
            u_ends = np.concatenate([res_ends, b_ends])
            u_chans = np.concatenate([res_chans, b_chans])
            u_entry_arr = np.concatenate([res_entry, b_entry])
        else:
            u_starts, u_ends, u_chans, u_entry_arr = (
                b_starts,
                b_ends,
                b_chans,
                b_entry,
            )

        ok = kcontention.round_ok(
            ctx,
            b_starts,
            b_ends,
            b_chans,
            b_entry,
            u_starts,
            u_ends,
            u_chans,
            u_entry_arr,
            nres,
        )

        if not res_starts and ok.all():
            # Every round-0 attempt got through: emit outcomes straight
            # from the draw arrays, skipping the retry/aggregation
            # machinery (finish = each attempt's own end).
            ends0 = pend_ends.tolist()
            return {
                nodes[e].node_id: WindowOutcome(
                    attempts=1, success=True, finish_offset_s=ends0[e]
                )
                for e in range(k)
            }

        res_starts.extend(b_starts.tolist())
        res_ends.extend(b_ends.tolist())
        res_chans.extend(b_chans.tolist())
        res_entry.extend(b_entry.tolist())
        b_ends_list = b_ends.tolist()
        for i in range(kb):
            per_entry_items[b_entry[i]].append(
                (int(b_att[i]), b_ends_list[i], bool(ok[i]))
            )

        # Retry draws follow the scalar order: failures in batch order.
        new_starts: List[float] = []
        new_ends: List[float] = []
        new_chans: List[int] = []
        new_entry: List[int] = []
        new_att: List[int] = []
        for i in np.nonzero(~ok)[0]:
            att = int(b_att[i])
            if att >= max_retransmissions:
                continue
            backoff = 2.0 + rng.uniform(1.0, 3.0)
            chan = rng.randrange(channel_count)
            e = int(b_entry[i])
            start = b_ends_list[i] + backoff
            new_starts.append(start)
            new_ends.append(start + airtimes[e])
            new_chans.append(chan)
            new_entry.append(e)
            new_att.append(att + 1)
        pend_starts = np.array(new_starts)
        pend_ends = np.array(new_ends)
        pend_chans = np.array(new_chans, dtype=np.int64)
        pend_entry = np.array(new_entry, dtype=np.int64)
        pend_att = np.array(new_att, dtype=np.int64)

    outcomes: Dict[int, WindowOutcome] = {}
    for e in range(k):
        items = per_entry_items[e]  # already attempt_no-ascending
        attempts_used = 0
        success = False
        finish = items[-1][1]
        for att, end_s, hit in items:
            attempts_used = att + 1
            if hit:
                success = True
                finish = end_s
                break
        outcomes[nodes[e].node_id] = WindowOutcome(
            attempts=attempts_used, success=success, finish_offset_s=finish
        )
    return outcomes


def _resolve_batch(
    sim,
    entries: List[WindowEntry],
    window_index: int,
    window_s: float,
    shared_solar,
) -> None:
    """Resolve one absolute window's transmissions and book the outcomes.

    Contended windows reuse the scalar :func:`resolve_window` (shared
    RNG, identical draws); uncontended ones take the single-entry fast
    path.  Settles are planned through the batched kernel, then
    per-entry bookkeeping follows the scalar order.
    """
    node_ids = [entry.node.node_id for entry in entries]
    # A node transmitting twice in one absolute window: both entries
    # share one outcome, and the second settles from the frontier the
    # first leaves, so that window settles one entry at a time.
    repeated = len(set(node_ids)) != len(node_ids)
    config = sim.config
    statics = sim._statics_for(window_index)
    if len(entries) == 1 and not statics:
        outcomes = {
            node_ids[0]: _resolve_single(entries[0], window_s, config, sim.rng)
        }
    else:
        gateway_counts = {len(entry.node.rssi_by_gateway) for entry in entries}
        if repeated or len(entries) + len(statics) <= _SMALL_RESOLVE_LIMIT:
            # Tiny windows: the scalar reference resolver's pairwise
            # loops beat the array machinery's fixed overhead (it is
            # draw-for-draw the same resolver, so bit-identity is free).
            # The array twin also needs distinct nodes.
            resolver = resolve_window
        elif len(gateway_counts) == 1:
            resolver = _resolve_window_vec
        else:
            resolver = resolve_window
        outcomes = resolver(
            entries,
            window_s=window_s,
            channel_count=config.channel_count,
            omega=config.omega,
            max_retransmissions=config.max_retransmissions,
            rng=sim.rng,
            static_attempts=statics,
        )
    window_start = window_index * window_s
    observe = config.forecaster == "persistence"
    chunk_s = config.settle_chunk_s()
    trace = sim._trace
    brownouts = [] if trace is not None else None
    items = []
    for entry in entries:
        outcome = outcomes[entry.node.node_id]
        items.append(
            (
                entry.node,
                window_start + outcome.finish_offset_s,
                outcome.attempts * entry.node.attempt_energy_j,
            )
        )
    if not repeated:
        shortfalls = _settle_items(items, shared_solar, chunk_s, brownouts)
    for k, entry in enumerate(entries):
        node, _, demand = items[k]
        if repeated:
            shortfall = _settle_items(
                [items[k]], shared_solar, chunk_s, brownouts
            )[0]
        else:
            shortfall = shortfalls[k]
        if trace is not None:
            _replay_brownouts(node, brownouts[k])
        outcome = outcomes[node.node_id]
        decision = entry.decision
        if shortfall > demand * 0.5:
            # The battery could not fund the attempts: brown-out.
            node.metrics.record_failure(
                retransmissions=outcome.attempts - 1,
                tx_energy_j=0.0,
                energy_drop=True,
            )
            if trace is not None:
                # A settle leaves the frontier at its (clamped) target.
                trace.emit(
                    node.settled_until_s,
                    "packet",
                    "packet.dropped",
                    severity="warning",
                    node_id=node.node_id,
                    reason="brownout",
                    soc=node.battery.soc,
                )
            if sim.packet_log is not None:
                sim.packet_log.append(
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
                min(outcome.attempts - 1, config.max_retransmissions),
                demand,
            )
            continue
        tx_metric = outcome.attempts * node.tx_energy_j
        retx = outcome.attempts - 1
        if outcome.success:
            latency = max(
                node.airtime_s + sim.ACK_DELAY_S,
                (window_start - entry.period_start_s)
                + outcome.finish_offset_s
                + sim.ACK_DELAY_S,
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
        if trace is not None:
            trace.emit(
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
        if sim.packet_log is not None:
            sim.packet_log.append(
                PacketRecord(
                    node_id=node.node_id,
                    generated_at_s=entry.period_start_s,
                    window_index=entry.window_index_in_period,
                    attempts=outcome.attempts,
                    delivered=outcome.success,
                    latency_s=latency
                    if outcome.success
                    else node.placement.period_s,
                    utility=decision.utility if outcome.success else 0.0,
                    energy_drop=False,
                )
            )
        if observe:
            # Only the persistence forecaster learns from observe();
            # oracle and noisy no-op, and ``window_energy_j`` is a pure
            # function (its caches are value-deterministic), so skipping
            # the feedback entirely is observationally equivalent.
            node.forecaster.observe(
                window_start,
                window_s,
                node.harvester.window_energy_j(window_start, window_s),
            )


# ------------------------------------------------------------------- sweep


def _settle_and_refresh(sim, now_s: float, shared_solar):
    """Settle every node to ``now_s``, then refresh each one's degradation.

    Yields the nodes in order, each after its brown-outs are replayed
    and its degradation metrics are updated.
    """
    nodes = list(sim.nodes.values())
    trace = sim._trace
    brownouts = [] if trace is not None else None
    _settle_items(
        [(node, now_s, 0.0) for node in nodes],
        shared_solar,
        sim.config.settle_chunk_s(),
        brownouts,
    )
    for i, node in enumerate(nodes):
        if trace is not None:
            _replay_brownouts(node, brownouts[i])
        node.metrics.degradation = node.battery.refresh_degradation()
        breakdown = node.battery.last_breakdown
        if breakdown is not None:
            node.metrics.cycle_aging = breakdown.cycle
            node.metrics.calendar_aging = breakdown.calendar
        yield node


def _refresh_batch(sim, now_s: float, shared_solar) -> None:
    """One degradation refresh: settle every node, recompute, disseminate."""
    started = time.perf_counter()
    compact = sim.config.effective_compact_trace()
    exempt = sim.config.effective_sample_nodes() if compact else None
    for node in _settle_and_refresh(sim, now_s, shared_solar):
        if compact and (exempt is None or node.node_id not in exempt):
            node.battery.trace.compact_tail()
        sim.service.set_degradation(node.node_id, node.metrics.degradation)
    for node in sim.nodes.values():
        node.mac.set_normalized_degradation(
            sim.service.normalized_degradation(node.node_id)
        )
    sim._record_refresh_wall(now_s, time.perf_counter() - started)
    if sim._trace is not None:
        sim._trace.emit(
            now_s, "wu", "wu.recomputed", severity="debug", nodes=len(sim.nodes)
        )


def finalize(sim, duration_s: float) -> None:
    """Settle every node to the horizon and take its final degradation."""
    started = time.perf_counter()
    shared_solar = next(iter(sim.nodes.values())).harvester.solar
    for node in _settle_and_refresh(sim, duration_s, shared_solar):
        node.metrics.final_soc = node.battery.soc
    sim._record_refresh_wall(duration_s, time.perf_counter() - started)


def run_sweep(sim) -> List[MonthlySample]:
    """Execute the full event sweep through the batched kernels.

    Loop state lives in the simulator's (checkpointable)
    :class:`_SweepState`, so a snapshot taken mid-sweep resumes here.
    """
    config = sim.config
    window_s = config.window_s
    duration = config.duration_s
    nodes = sim.nodes
    shared_solar = next(iter(nodes.values())).harvester.solar

    PERIOD = 0
    state = sim._sweep_state
    if state is None:
        state = sim._sweep_state = _SweepState.initial(sim)
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
            sim._checkpoint_before(heap[0][0], state)
        iterations += 1
        if iterations % 256 == 0 and stop_requested():
            state.seq = seq
            state.next_refresh = next_refresh
            state.next_month = next_month
            state.month_index = month_index
            sim._interrupted(heap[0][0])
        time_s, kind, _, payload = heapq.heappop(heap)
        sim._events_executed += 1

        while next_refresh <= time_s:
            _refresh_batch(sim, next_refresh, shared_solar)
            next_refresh += config.dissemination_interval_s
        while next_month <= time_s:
            month_index += 1
            values = [n.metrics.degradation for n in nodes.values()]
            monthly.append(
                MonthlySample(
                    month=month_index,
                    max_degradation=max(values),
                    mean_degradation=sum(values) / len(values),
                )
            )
            next_month += month_s

        if kind == PERIOD:
            # Pop the whole same-instant cohort: processing a PERIOD
            # event never enqueues another event at its own timestamp,
            # so these are exactly the events the scalar loop would pop
            # consecutively (time equal, kind equal, seq ascending).
            batch = [nodes[payload]]
            while heap and heap[0][0] == time_s and heap[0][1] == PERIOD:
                _, _, _, other = heapq.heappop(heap)
                sim._events_executed += 1
                batch.append(nodes[other])
            seq = _start_period_batch(
                sim,
                batch,
                time_s,
                pending_windows,
                heap,
                seq,
                shared_solar,
                duration,
            )
        else:  # RESOLVE at the end of absolute window `payload`
            entries = pending_windows.pop(payload, [])
            if entries:
                _resolve_batch(sim, entries, payload, window_s, shared_solar)
            if len(heap) > sim._peak_heap:
                sim._peak_heap = len(heap)

    state.seq = seq
    state.next_refresh = next_refresh
    state.next_month = next_month
    state.month_index = month_index
    # Flush any windows scheduled past the horizon.
    for window_index, entries in sorted(pending_windows.items()):
        _resolve_batch(sim, entries, window_index, window_s, shared_solar)
    pending_windows.clear()
    return monthly
