"""The fused settle pass's rainflow stage ≡ pushing the samples one at a time.

``repro.kernels.settle.recurrence`` pushes every chunk's SoC through the
battery's ``StreamingRainflow`` inline.  These tests drive a capacity-1
battery through chosen SoC walks — levels on a 1/64 grid, where every
charge and discharge step is exact in binary floating point, so the
pass produces exactly the walk's values — and check *state* identity
(stack, provisional tail, bootstrap flags) and *emission* identity (same
cycles, same order, same weights) with ``StreamingRainflow.push`` at any
settle boundary.
"""

import random

import pytest

from repro.battery import Battery
from repro.battery.rainflow import StreamingRainflow, count_cycles
from repro.battery.soc_trace import SocTrace
from repro.kernels import settle

STEP = 1.0 / 64.0


def _walk(rng, n):
    values, level = [], rng.randint(0, 64)
    for _ in range(n):
        # Plateaus and monotone runs exercise the tail-collapse path.
        if rng.random() < 0.2 and values:
            values.append(values[-1])
        else:
            level = min(64, max(0, level + rng.randint(-19, 19)))
            values.append(level * STEP)
    return values


def _battery(stream):
    """A capacity-1 battery with no SoC history, settling into ``stream``."""
    battery = Battery(capacity_j=1.0, initial_soc=0.0)
    battery.trace = SocTrace()
    battery._incremental._stream = stream
    return battery


def _settle_through(battery, values):
    """One fused pass whose chunk SoCs are exactly ``values``.

    Sleep draw is 1/64 W.  A rise by Δ is a 1-s chunk harvesting
    Δ + 1/64 J; a fall by Δ is a dark chunk lasting 64·Δ s.
    """
    if not values:
        return
    ends, durations, powers = [], [], []
    t, level = battery.now_s, battery.stored_j
    for value in values:
        if value >= level:
            duration, power = 1.0, (value - level) + STEP
        else:
            duration, power = (level - value) * 64.0, 0.0
        t += duration
        ends.append(t)
        durations.append(duration)
        powers.append(power)
        level = value
    settle.recurrence(ends, durations, powers, STEP, 0.0, battery, 1.0)
    assert battery.trace.last_soc == values[-1]


def _state(stream):
    return (
        list(stream._stack),
        stream._prev,
        stream._tail,
        stream._have_prev,
    )


def _replay_in_chunks(values, rng=None):
    stream = StreamingRainflow()
    battery = _battery(stream)
    if rng is None:
        _settle_through(battery, values)
        return stream
    i = 0
    while i < len(values):
        j = i + rng.randint(1, max(1, len(values) - i))
        _settle_through(battery, values[i:j])
        i = j
    return stream


class TestReplayEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_push(self, seed):
        rng = random.Random(seed)
        values = _walk(rng, rng.randint(0, 400))
        reference = StreamingRainflow()
        for value in values:
            reference.push(value)
        replayed = _replay_in_chunks(values)
        assert _state(replayed) == _state(reference)
        assert replayed.closed == reference.closed

    @pytest.mark.parametrize("seed", range(10, 16))
    def test_batch_boundaries_are_invisible(self, seed):
        rng = random.Random(seed)
        values = _walk(rng, 300)
        one_shot = _replay_in_chunks(values)
        chunked = _replay_in_chunks(values, rng=random.Random(seed + 1))
        assert _state(chunked) == _state(one_shot)
        assert chunked.closed == one_shot.closed

    @pytest.mark.parametrize("seed", range(16, 20))
    def test_closed_plus_pending_equals_batch_count(self, seed):
        rng = random.Random(seed)
        values = _walk(rng, 250)
        stream = _replay_in_chunks(values)
        assert stream.closed + stream.pending_cycles() == count_cycles(values)

    def test_empty_and_constant_series(self):
        stream = StreamingRainflow()
        battery = _battery(stream)
        _settle_through(battery, [])
        assert _state(stream) == ([], 0.0, None, False)
        _settle_through(battery, [0.5, 0.5, 0.5])
        reference = StreamingRainflow()
        for value in (0.5, 0.5, 0.5):
            reference.push(value)
        assert _state(stream) == _state(reference)
        assert stream.closed == []

    def test_on_cycle_callback_sees_kernel_emissions(self):
        rng = random.Random(77)
        values = _walk(rng, 300)
        seen = []
        _settle_through(_battery(StreamingRainflow(on_cycle=seen.append)), values)
        reference = StreamingRainflow()
        for value in values:
            reference.push(value)
        assert seen == reference.closed
