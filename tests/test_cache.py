"""FIFO delay laws, firing-schedule arithmetic, and row-cache rotation."""

import numpy as np
import pytest

from convgen import (
    InvalidParameterError,
    InvalidRowError,
    ScheduleViolationError,
    ShapeError,
    UnsupportedTopologyError,
)
from convgen.cache import FifoCache, RowCache, schedule_build

HOURGLASS = (("down", 2), ("down", 2), ("up", 2), ("up", 2))


# ---------------------------------------------------------------------------
# FifoCache
# ---------------------------------------------------------------------------


def test_capacity_equals_dilation():
    assert len(FifoCache(capacity=4, width=1)) == 4
    assert FifoCache(capacity=1, width=1).pop()[0] == 0.0


def test_prefill_shapes():
    cache = FifoCache(capacity=8, width=16)
    assert len(cache) == 8
    assert cache.stored_values() == 8 * 16
    first = cache.pop()
    assert first.shape == (16,) and not first.any()


def test_fifo_order_with_prefill():
    # pop/push cycles on a capacity-2 cache: two zeros come out before `a`
    cache = FifoCache(capacity=2, width=1)
    a, b = np.array([1.0], np.float32), np.array([2.0], np.float32)
    out = []
    for value in (a, b, None):
        out.append(cache.pop()[0])
        cache.push(value if value is not None else b)
    assert out == [0.0, 0.0, 1.0]


def test_delay_law_replay():
    # state popped at firing step n is the state pushed at step n - capacity
    rng = np.random.default_rng(0)
    for capacity in (1, 2, 5, 8):
        cache = FifoCache(capacity=capacity, width=3)
        log = [np.zeros(3, np.float32)] * capacity  # implicit pre-start pushes
        for n in range(100):
            popped = cache.pop()
            assert np.array_equal(popped, log[n])
            state = rng.uniform(-1, 1, 3).astype(np.float32)
            cache.push(state)
            log.append(state)
            assert len(cache) == capacity  # never exceeds capacity


def test_protocol_violations():
    cache = FifoCache(capacity=2, width=1)
    cache.pop()
    with pytest.raises(ScheduleViolationError):
        cache.pop()  # double pop
    cache.push(np.zeros(1, np.float32))
    with pytest.raises(ScheduleViolationError):
        cache.push(np.zeros(1, np.float32))  # push without pop
    cache.pop()
    with pytest.raises(ShapeError):
        cache.push(np.zeros(2, np.float32))


def test_invalid_parameters():
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(InvalidParameterError):
            FifoCache(*bad)


def test_fires_period():
    cache = FifoCache(capacity=1, width=1, cache_every=3)
    assert [cache.fires(t) for t in range(7)] == [True, False, False, True, False, False, True]
    every_step = FifoCache(capacity=1, width=1)
    assert all(every_step.fires(t) for t in range(10))


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------


def test_all_dilated_schedule_is_ones():
    sched = schedule_build([("same", 1)] * 5)
    assert sched.cache_every == (1,) * 6
    assert sched.fire_every == (1,) * 6
    assert sched.period == 1
    assert all(sched.fires(layer, t) for layer in range(1, 6) for t in range(5))


def test_hourglass_schedule_values():
    sched = schedule_build(HOURGLASS)
    assert sched.cache_every == (1, 2, 4, 2, 1)
    assert sched.fire_every == (1, 2, 4, 4, 4)
    assert sched.emit_count == (1, 1, 1, 2, 4)
    assert sched.period == 4


def test_hourglass_firing_steps():
    sched = schedule_build(HOURGLASS)
    assert sched.firing_layers(0) == (1, 2, 3, 4)  # full burst
    assert sched.firing_layers(1) == ()
    assert sched.firing_layers(2) == (1,)  # exactly one new hidden node
    assert sched.firing_layers(3) == ()
    assert sched.firing_layers(4) == (1, 2, 3, 4)


def test_schedule_periodicity():
    for plan in (HOURGLASS, (("down", 2), ("up", 2), ("down", 2), ("up", 2)),
                 (("down", 2), ("down", 4), ("up", 4), ("up", 2))):
        sched = schedule_build(plan)
        P = sched.period
        for t in range(10 * P):
            assert sched.firing_layers(t) == sched.firing_layers(t + P)


def test_fractional_cache_every_rejected():
    with pytest.raises(UnsupportedTopologyError):
        schedule_build([("up", 2)])
    with pytest.raises(UnsupportedTopologyError):
        schedule_build([("down", 2), ("up", 4)])
    with pytest.raises(InvalidParameterError):
        schedule_build([("sideways", 2)])
    with pytest.raises(InvalidParameterError):
        schedule_build([("down", 0)])


# ---------------------------------------------------------------------------
# RowCache
# ---------------------------------------------------------------------------


def test_rowcache_geometry():
    cache = RowCache(height=2, width=8, channels=3)
    assert cache.rows_stack().shape == (3, 2, 8)
    assert cache.stored_values() == 2 * 8 * 3


def test_rowcache_rotation_and_top_border():
    cache = RowCache(height=2, width=4, channels=1)
    assert not cache.rows_stack().any()  # first rows read pure zero padding
    r1 = np.arange(4, dtype=np.float32)[None, :]
    r2 = (10 + np.arange(4, dtype=np.float32))[None, :]
    cache.push_row(r1)
    cache.push_row(r2)
    stack = cache.rows_stack()
    assert np.array_equal(stack[0, 0], r1[0])  # oldest first
    assert np.array_equal(stack[0, 1], r2[0])
    cache.push_row(r1)
    assert np.array_equal(cache.rows_stack()[0, 0], r2[0])  # r1 rotated out


def test_rowcache_partial_row_rejected():
    cache = RowCache(height=2, width=8, channels=1)
    with pytest.raises(InvalidRowError):
        cache.push_row(np.zeros((1, 5), np.float32))
    with pytest.raises(InvalidRowError):
        cache.push_row(np.zeros((2, 8), np.float32))


def test_rowcache_batched_rows():
    cache = RowCache(height=2, width=4, channels=1, batch=3)
    row = np.ones((1, 4, 3), np.float32)
    cache.push_row(row)
    assert cache.rows_stack().shape == (1, 2, 4, 3)
