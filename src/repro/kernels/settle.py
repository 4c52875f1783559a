"""The fused settle pass: switch, battery, SoC trace and rainflow in one loop.

One settle applies a sequence of chunk energy balances to a battery:
per chunk, harvested green energy covers demand first, surplus charges
up to the θ/ψ_max limit, deficit discharges, and the resulting SoC is
bound-checked, added to the trace integral, merged into the trace's
monotone runs and pushed through the streaming rainflow counter that
feeds Eqs. (1)-(4).  :func:`recurrence` does all of that in one Python
loop, mutating the battery, its :class:`~repro.battery.SocTrace` and its
:class:`~repro.battery.rainflow.StreamingRainflow` in place.

The float operations and their order reproduce the object path —
``SoftwareDefinedSwitch.apply_window`` + ``Battery.charge`` /
``discharge`` / ``settle`` + ``SocTrace.append`` +
``StreamingRainflow.push`` per chunk — bit for bit
(``tests/kernels/test_settle.py``).  Both engines settle through it:
the exact engine's ``EndDevice.settle_to`` and the vectorized
mesoscopic sweep.  Side effects that belong to the caller — brown-out
trace events and hooks, the last-recharge window of the packet report —
are returned instead of performed, so the caller replays them in chunk
order.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..obs.profiling import hot_profiler

_PROF = hot_profiler()


def _fused(
    ends: Sequence[float],
    durations: Sequence[float],
    powers: Sequence[float],
    sleep_w: float,
    extra_j: float,
    battery,
    soc_cap: float,
) -> Tuple[float, int, List[Tuple[int, float, float]]]:
    trace = battery.trace
    prev_t = trace._last_time
    if prev_t is not None and ends[0] < prev_t:
        raise ConfigurationError("trace times must be non-decreasing")
    if trace._start_time is None:
        trace._start_time = ends[0]
    have_prev_t = prev_t is not None
    prev_c = trace._last_soc
    integral = trace._weighted_integral
    # The trace's last two stored points, tracked as locals.
    ts, ss = trace.times, trace.socs
    stored_n = len(ss)
    before = ss[-2] if stored_n >= 2 else 0.0
    last_s = ss[-1] if stored_n else 0.0

    incremental = battery._incremental
    stream = incremental._stream if incremental is not None else None
    if stream is not None:
        confirm = stream._confirm
        tail = stream._tail
        turn = stream._prev
        have_turn = stream._have_prev

    stored = battery.stored_j
    capacity_j = battery.capacity_j
    # Degradation is constant during a settle, so Battery.charge's limit
    # is loop-invariant.
    limit_j = min(battery.current_max_capacity_j, soc_cap * capacity_j)
    shortfall = 0.0
    last_charge = -1
    brownouts: List[Tuple[int, float, float]] = []
    last = len(ends) - 1
    for i in range(last + 1):
        duration = durations[i]
        harvested = powers[i] * duration
        demand = sleep_w * duration
        if i == last:
            demand += extra_j
        # min/max spelled as conditionals (same values, fewer calls).
        green_used = demand if demand < harvested else harvested
        surplus = harvested - green_used
        deficit = demand - green_used
        if surplus > 0.0:
            room = limit_j - stored
            accepted = room if room < surplus else surplus
            if accepted > 0.0:
                stored += accepted
                last_charge = i
        elif deficit > 0.0:
            used = stored if stored < deficit else deficit
            unmet = deficit - used
            shortfall += unmet
            stored -= used
            if stored < 0.0:
                stored = 0.0
            # WindowEnergyResult.balanced's tolerance.
            if unmet > 1e-12:
                brownouts.append((i, unmet, stored / capacity_j))
        soc = stored / capacity_j
        if not 0.0 <= soc <= 1.0 + 1e-9:
            raise ConfigurationError(f"SoC {soc} outside [0, 1]")
        c = soc if soc <= 1.0 else 1.0
        t = ends[i]
        # SocTrace.append: trapezoid, then the monotone-run merge.
        if have_prev_t:
            integral += (t - prev_t) * (c + prev_c) / 2.0
        else:
            have_prev_t = True
        prev_t = t
        prev_c = c
        if stored_n >= 2 and (
            c >= last_s if last_s > before
            else c <= last_s if last_s < before
            else c == last_s
        ):
            ts[-1] = t
            ss[-1] = c
        else:
            ts.append(t)
            ss.append(c)
            stored_n += 1
            before = last_s
        last_s = c
        # StreamingRainflow.push: only a direction change confirms a
        # turning point (and may close cycles).
        if stream is not None:
            if tail is None:
                tail = c
            elif c != tail:
                if have_turn and (tail > turn) == (c > tail):
                    tail = c
                else:
                    confirm(tail)
                    turn = tail
                    tail = c
                    have_turn = True

    if stream is not None:
        stream._tail = tail
        stream._prev = turn
        stream._have_prev = have_turn
    trace._weighted_integral = integral
    trace._last_time = prev_t
    trace._last_soc = prev_c
    battery.stored_j = stored
    battery._now_s = ends[last]
    return shortfall, last_charge, brownouts


def recurrence(ends, durations, powers, sleep_w, extra_j, battery, soc_cap):
    """Settle ``battery`` through consecutive chunks ending at ``ends``.

    Chunk ``i`` lasts ``durations[i]`` seconds at harvested power
    ``powers[i]`` and sleep draw ``sleep_w``; ``extra_j`` (transmission
    energy) adds to the last chunk's demand.  ``soc_cap`` is θ.  Needs at
    least one chunk.

    Returns ``(shortfall_j, last_charge, brownouts)``: the summed unmet
    demand, the index of the last chunk that charged the battery (-1 if
    none), and ``(index, shortfall_j, soc)`` for every chunk whose unmet
    demand browns the node out, in chunk order.
    """
    if not _PROF.enabled:
        return _fused(ends, durations, powers, sleep_w, extra_j, battery, soc_cap)
    started = time.perf_counter()
    try:
        return _fused(ends, durations, powers, sleep_w, extra_j, battery, soc_cap)
    finally:
        _PROF.add("settle.recurrence", time.perf_counter() - started)
