"""Fused settle pass ≡ the per-chunk object path, bit for bit.

The object path is what the fused pass replaces: per chunk,
``SoftwareDefinedSwitch.apply_window`` on a :class:`Battery`, whose
``charge``/``discharge``/``settle`` append to the ``SocTrace`` and push
through the incremental ``StreamingRainflow``.  Both paths run on
identical copies of one battery; afterwards the stored energy, the
shortfall, the trace (times, SoCs, integral, last point), the rainflow
state (stack, tail, prev, closed-cycle aggregates), the brown-out
sequence and the last charging chunk must be equal as floats, not
merely close.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery import Battery
from repro.battery.incremental import IncrementalDegradation
from repro.battery.soc_trace import SocTrace
from repro.energy import SoftwareDefinedSwitch
from repro.exceptions import ConfigurationError
from repro.kernels import settle


def make_battery(
    capacity_j=100.0,
    initial_soc=0.4,
    degradation=0.0,
    prior=(),
    fresh=False,
    compact=None,
):
    """A battery with some history, ready to be copied for both paths.

    ``prior`` holds signed energies (fractions of capacity) applied
    through ``charge``/``discharge`` ten minutes apart; ``fresh`` swaps
    in an empty trace and rainflow stream, so the next sample is the
    first ever; ``compact`` trims the trace with ``compact_tail``.
    """
    battery = Battery(capacity_j=capacity_j, initial_soc=initial_soc)
    # A degraded ψ_max below the θ cap limits charging.
    battery._degradation = degradation
    battery.stored_j = min(battery.stored_j, battery.current_max_capacity_j)
    t = 0.0
    for fraction in prior:
        t += 600.0
        energy = abs(fraction) * capacity_j
        if fraction >= 0:
            battery.charge(energy, t)
        else:
            battery.discharge(min(energy, battery.stored_j), t)
    if fresh:
        battery.trace = SocTrace()
        battery._incremental = IncrementalDegradation(battery.temperature_c)
    if compact is not None:
        battery.trace.compact_tail(keep_last=compact)
    return battery


def chunks_after(battery, durations):
    """Chunk ends laid out from the battery's current time."""
    ends, t = [], battery.now_s
    for duration in durations:
        t += duration
        ends.append(t)
    return ends


def object_path(battery, ends, durations, powers, sleep_w, extra_j, soc_cap):
    """The per-chunk path the fused pass replaces (the reference)."""
    switch = SoftwareDefinedSwitch(soc_cap=soc_cap)
    shortfall = 0.0
    last_charge = -1
    brownouts = []
    last = len(ends) - 1
    for i, end in enumerate(ends):
        demand = sleep_w * durations[i]
        if i == last:
            demand += extra_j
        result = switch.apply_window(battery, powers[i] * durations[i], demand, end)
        shortfall += result.shortfall_j
        if result.charged_j > 0:
            last_charge = i
        if not result.balanced:
            brownouts.append((i, result.shortfall_j, battery.soc))
    return shortfall, last_charge, brownouts


def state(battery):
    """Everything the settle pass may change, as plain values."""
    trace = battery.trace
    incremental = battery._incremental
    stream = incremental._stream
    return dict(
        stored=battery.stored_j,
        now=battery.now_s,
        times=list(trace.times),
        socs=list(trace.socs),
        integral=trace._weighted_integral,
        start=trace._start_time,
        last_time=trace._last_time,
        last_soc=trace._last_soc,
        stack=list(stream._stack),
        tail=stream._tail,
        prev=stream._prev,
        have_prev=stream._have_prev,
        closed=incremental._closed_count,
        sums=(
            incremental._weight_sum,
            incremental._depth_sum,
            incremental._soc_sum,
            incremental._aging_sum,
        ),
    )


def run_both(battery, durations, powers, sleep_w, extra_j=0.0, soc_cap=0.5):
    """Run both paths on copies of ``battery``; assert they agree."""
    ends = chunks_after(battery, durations)
    fused = pickle.loads(pickle.dumps(battery))
    reference = pickle.loads(pickle.dumps(battery))
    got = settle.recurrence(
        ends, durations, powers, sleep_w, extra_j, fused, soc_cap
    )
    expected = object_path(
        reference, ends, durations, powers, sleep_w, extra_j, soc_cap
    )
    assert got == expected
    assert state(fused) == state(reference)
    return got, fused


def _random_case(rng):
    capacity = rng.uniform(50.0, 500.0)
    battery = make_battery(
        capacity_j=capacity,
        initial_soc=rng.random(),
        degradation=rng.choice([0.0, rng.uniform(0.0, 0.6)]),
        prior=[rng.uniform(-0.5, 0.5) for _ in range(rng.randint(0, 12))],
        fresh=rng.random() < 0.2,
        compact=rng.choice([None, None, 1, 2]),
    )
    chunks = rng.randint(1, 60)
    durations = [rng.uniform(30.0, 7200.0) for _ in range(chunks)]
    # Mix of night (exact zero) and day power levels.
    powers = [
        0.0 if rng.random() < 0.4 else rng.uniform(0.0, capacity / 3600.0)
        for _ in range(chunks)
    ]
    return dict(
        battery=battery,
        durations=durations,
        powers=powers,
        sleep_w=rng.uniform(0.0, capacity / 20000.0),
        extra_j=rng.uniform(0.0, capacity / 4) if rng.random() < 0.5 else 0.0,
        soc_cap=rng.uniform(0.05, 1.0),
    )


class TestRecurrenceEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_chunks(self, seed):
        run_both(**_random_case(random.Random(seed)))

    def test_single_chunk_bootstraps_trace_integral(self):
        # The first-ever sample only seeds the trace's last point.
        battery = make_battery(fresh=True)
        _, fused = run_both(battery, [600.0], [1e-3], 1e-5)
        assert fused.trace._weighted_integral == 0.0
        assert fused.trace.times == [600.0]
        assert fused.trace._start_time == 600.0
        assert fused._incremental._stream._tail == fused.trace.socs[0]

    def test_deep_discharge_accumulates_shortfall(self):
        battery = make_battery(capacity_j=200.0, initial_soc=0.25)
        (shortfall, last_charge, brownouts), fused = run_both(
            battery, [100.0, 100.0, 100.0], [0.0, 0.0, 0.0],
            sleep_w=1.0,  # absurd draw: guarantees stored hits zero
            extra_j=10.0,
        )
        assert fused.stored_j == 0.0  # battery empty
        assert shortfall > 0.0  # unmet demand recorded
        assert last_charge == -1
        assert [index for index, _, _ in brownouts] == [0, 1, 2]
        assert all(soc == 0.0 for _, _, soc in brownouts)

    def test_charge_clamps_at_limit(self):
        battery = make_battery(capacity_j=100.0, initial_soc=0.1)
        (_, last_charge, _), fused = run_both(
            battery, [100.0, 100.0], [1.0, 1.0], sleep_w=1e-6, soc_cap=0.6,
        )
        assert fused.stored_j == 60.0  # θ cap, not capacity
        # The second chunk found the battery already at the cap.
        assert last_charge == 0

    def test_out_of_range_soc_raises_on_active_backend(self):
        battery = make_battery(capacity_j=100.0)
        battery.stored_j = 150.0  # stored > capacity → SoC > 1 + 1e-9
        with pytest.raises(ConfigurationError):
            settle.recurrence([100.0], [100.0], [0.0], 1e-6, 0.0, battery, 1.0)


class TestNamedCases:
    def test_night_only(self):
        battery = make_battery(prior=[0.2, -0.3, 0.1])
        (_, last_charge, _), _ = run_both(battery, [3600.0] * 12, [0.0] * 12, 2e-4)
        assert last_charge == -1

    def test_theta_capped(self):
        battery = make_battery(initial_soc=0.45, prior=[-0.1])
        _, fused = run_both(battery, [600.0] * 6, [0.05] * 6, 1e-5, soc_cap=0.5)
        assert fused.stored_j == 50.0

    def test_degraded_psi_max_caps_below_theta(self):
        battery = make_battery(initial_soc=0.2, degradation=0.7)
        _, fused = run_both(battery, [600.0] * 6, [0.05] * 6, 1e-5, soc_cap=0.5)
        assert fused.stored_j == fused.current_max_capacity_j < 50.0

    def test_first_ever_sample(self):
        battery = make_battery(fresh=True)
        run_both(battery, [300.0, 900.0, 60.0], [0.0, 1e-2, 0.0], 1e-3)

    @pytest.mark.parametrize("keep", [1, 2])
    def test_after_compact_tail(self, keep):
        battery = make_battery(prior=[0.3, -0.2, 0.25, -0.4, 0.1], compact=keep)
        run_both(battery, [600.0] * 8, [0.0, 0.02, 0.02, 0.0, 0.0, 0.01, 0.0, 0.03], 5e-4)

    def test_zero_chunk_extra_demand(self):
        # Settling to the same instant: one zero-length chunk carries
        # the transmission demand, as the mesoscopic sweep passes it.
        battery = make_battery(prior=[0.1, -0.05])
        (shortfall, _, brownouts), fused = run_both(
            battery, [0.0], [0.0], 1e-4, extra_j=5.0,
        )
        assert shortfall == 0.0 and brownouts == []
        assert fused.trace.last_time == battery.now_s

    def test_zero_chunk_extra_demand_browns_out(self):
        battery = make_battery(initial_soc=0.01)
        (shortfall, _, brownouts), _ = run_both(
            battery, [0.0], [0.0], 1e-4, extra_j=5.0,
        )
        assert shortfall == 4.0
        assert brownouts == [(0, 4.0, 0.0)]


@st.composite
def settle_cases(draw):
    """A battery with history plus chunks covering every branch."""
    capacity = draw(st.floats(1.0, 500.0))
    battery = make_battery(
        capacity_j=capacity,
        initial_soc=draw(st.floats(0.0, 1.0)),
        degradation=draw(st.sampled_from([0.0, 0.1, 0.55, 0.9])),
        prior=draw(st.lists(st.floats(-1.0, 1.0), max_size=15)),
        fresh=draw(st.booleans()),
        compact=draw(st.sampled_from([None, 1, 2])),
    )
    chunks = draw(st.integers(0, 40))
    if chunks == 0:
        # Zero chunks: the same-instant extra demand of the meso sweep.
        durations, powers = [0.0], [0.0]
        extra = draw(st.floats(1e-6, capacity))
    else:
        durations = draw(st.lists(
            st.sampled_from([0.0, 60.0, 300.0, 3600.0]) | st.floats(1.0, 7200.0),
            min_size=chunks, max_size=chunks,
        ))
        day = st.floats(0.0, 2.0 * capacity / 3600.0)
        powers = draw(st.lists(
            st.just(0.0) | day, min_size=chunks, max_size=chunks,
        ))
        extra = draw(st.just(0.0) | st.floats(0.0, capacity))
    return dict(
        battery=battery,
        durations=durations,
        powers=powers,
        sleep_w=draw(st.floats(0.0, capacity / 3600.0)),
        extra_j=extra,
        soc_cap=draw(st.floats(0.01, 1.0)),
    )


@settings(max_examples=300, deadline=None)
@given(settle_cases())
def test_fused_pass_matches_object_path(case):
    run_both(**case)
