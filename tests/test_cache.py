"""The strided firing schedule, row-cache rotation, and the `FifoCache` stub."""

import copy

import numpy as np
import pytest

from convgen import (
    InvalidParameterError,
    InvalidRowError,
    NetworkSpec,
    ScheduleViolationError,
    StridedPlan,
    UnsupportedTopologyError,
    firing_trace,
)
from convgen.cache import FifoCache, RowCache

HOURGLASS = ("down2", "down2", "up2", "up2")


def plan_of(*strides):
    return StridedPlan.from_spec(NetworkSpec("strided", strides=strides))


def firing_layers(plan, t):
    """1-based indices of the layers that compute at least one node at step t."""
    return tuple(i + 1 for i, n in enumerate(plan.nodes[t % plan.period]) if n)


def test_fifo_cache_is_a_name_whose_methods_raise():
    # kept only for perfbench's tracer, which patches these three methods
    for method in ("fires", "pop", "push"):
        with pytest.raises(ScheduleViolationError):
            getattr(FifoCache(), method)()


# ---------------------------------------------------------------------------
# Firing schedule (StridedPlan)
# ---------------------------------------------------------------------------


def test_all_dilated_schedule_is_ones():
    plan = plan_of(*("down1",) * 5)
    assert plan.period == 1
    assert plan.nodes == ((1,) * 5,)
    assert all(firing_layers(plan, t) == (1, 2, 3, 4, 5) for t in range(5))


def test_hourglass_schedule_values():
    plan = plan_of(*HOURGLASS)
    assert plan.period == 4
    # nodes per period of each layer: the period over its update period (2, 4, 2, 1)
    assert tuple(sum(col) for col in zip(*plan.nodes)) == (2, 1, 2, 4)
    # steps between firings of each layer: 2, 4, 4, 4
    fire_every = tuple(
        plan.period // sum(1 for row in plan.nodes if row[i]) for i in range(4)
    )
    assert fire_every == (2, 4, 4, 4)
    # nodes computed per firing: 1, 1, 2, 4
    assert plan.nodes[0] == (1, 1, 2, 4)


def test_hourglass_firing_steps():
    plan = plan_of(*HOURGLASS)
    assert firing_layers(plan, 0) == (1, 2, 3, 4)  # full burst
    assert firing_layers(plan, 1) == ()
    assert firing_layers(plan, 2) == (1,)  # exactly one new hidden node
    assert firing_layers(plan, 3) == ()
    assert firing_layers(plan, 4) == (1, 2, 3, 4)


def test_schedule_periodicity():
    for strides in (HOURGLASS, ("down2", "up2", "down2", "up2"),
                    ("down2", "down4", "up4", "up2")):
        plan = plan_of(*strides)
        P = plan.period
        trace = firing_trace(plan, 11 * P)
        for t in range(10 * P):
            assert firing_layers(plan, t) == firing_layers(plan, t + P)
            assert trace[t].nodes == trace[t + P].nodes


def test_fractional_cache_every_rejected():
    with pytest.raises(UnsupportedTopologyError):
        plan_of("up2")
    with pytest.raises(UnsupportedTopologyError):
        plan_of("down2", "up4")
    with pytest.raises(InvalidParameterError):
        plan_of("sideways2")
    with pytest.raises(InvalidParameterError):
        plan_of("down0")


# ---------------------------------------------------------------------------
# RowCache
# ---------------------------------------------------------------------------


def test_rowcache_geometry():
    cache = RowCache(height=2, width=8, channels=3, batch=1, kw=1, slots=2, pad=0)
    assert cache.rows_stack().shape == (3, 2, 8, 1)
    assert cache.stored_values() == 2 * 8 * 3
    padded = RowCache(height=3, width=5, channels=2, batch=4, kw=3, slots=3, pad=2)
    assert padded.rows_stack().shape == (2, 3, 5, 4)
    assert padded.stored_values() == 3 * 5 * 2 * 4  # the kw - 1 pad columns are not counted
    for bad in (dict(batch=0, kw=1), dict(batch=1, kw=0)):
        with pytest.raises(InvalidParameterError):
            RowCache(height=2, width=8, channels=3, slots=2, pad=0, **bad)


def test_rowcache_rotation_and_top_border():
    cache = RowCache(height=2, width=4, channels=1, batch=1, kw=1, slots=2, pad=0)
    assert not cache.rows_stack().any()  # first rows read pure zero padding
    r1 = np.arange(4, dtype=np.float32)[None, :, None]
    r2 = (10 + np.arange(4, dtype=np.float32))[None, :, None]
    cache.push_row(r1)
    cache.push_row(r2)
    stack = cache.rows_stack()
    assert np.array_equal(stack[0, 0], r1[0])  # oldest first
    assert np.array_equal(stack[0, 1], r2[0])
    cache.push_row(r1)
    assert np.array_equal(cache.rows_stack()[0, 0], r2[0])  # r1 rotated out


def test_rowcache_partial_row_rejected():
    cache = RowCache(height=2, width=8, channels=1, batch=1, kw=1, slots=2, pad=0)
    with pytest.raises(InvalidRowError):
        cache.push_row(np.zeros((1, 5, 1), np.float32))
    with pytest.raises(InvalidRowError):
        cache.push_row(np.zeros((2, 8, 1), np.float32))
    with pytest.raises(InvalidRowError):
        cache.push_row(np.zeros((1, 8), np.float32))  # a row without its batch axis


def test_rowcache_batched_rows():
    cache = RowCache(height=2, width=4, channels=1, batch=3, kw=1, slots=2, pad=0)
    row = np.ones((1, 4, 3), np.float32)
    cache.push_row(row)
    assert cache.rows_stack().shape == (1, 2, 4, 3)


@pytest.mark.parametrize("kw", [1, 3])
def test_rowcache_windows_are_zero_left_shifts(kw):
    cache = RowCache(height=2, width=4, channels=2, batch=3, kw=kw, slots=2, pad=kw - 1)
    rng = np.random.default_rng(0)
    rows = [rng.standard_normal((2, 4, 3)).astype(np.float32) for _ in range(3)]
    for row in rows:
        cache.push_row(row)
    got = cache.windows()
    assert len(got) == 2
    for row, windows in zip(rows[1:], got):  # oldest first
        assert windows.shape == (kw, 2, 4, 3)
        for j in range(kw):
            shift = kw - 1 - j
            assert not windows[j, :, :shift].any()
            assert np.array_equal(windows[j, :, shift:], row[:, : 4 - shift])


def test_rowcache_windows_are_read_only():
    cache = RowCache(height=2, width=4, channels=1, batch=2, kw=3, slots=2, pad=2)
    for windows in cache.windows():
        assert not windows.flags.writeable
        with pytest.raises(ValueError):
            windows[0, 0, 0, 0] = 1.0


def test_rowcache_push_row_stores_a_copy():
    cache = RowCache(height=2, width=4, channels=1, batch=2, kw=2, slots=2, pad=1)
    row = np.ones((1, 4, 2), np.float32)
    cache.push_row(row)
    row[...] = 7.0
    assert np.array_equal(cache.rows_stack()[:, 1], np.ones((1, 4, 2), np.float32))


def test_rowcache_deepcopy_reads_its_own_ring():
    cache = RowCache(height=2, width=3, channels=1, batch=1, kw=2, slots=2, pad=1)
    cache.push_row(np.ones((1, 3, 1), np.float32))
    fork = copy.deepcopy(cache)
    assert np.array_equal(fork.rows_stack(), cache.rows_stack())
    fork.push_row(np.full((1, 3, 1), 5.0, np.float32))
    assert fork.rows_stack()[0, 1, 0, 0] == 5.0  # the fork's windows see its own pushes
    assert fork.windows()[-1][-1, 0, 0, 0] == 5.0
    assert cache.rows_stack()[0, 1, 0, 0] == 1.0  # and the original is untouched


@pytest.mark.parametrize("kw,pad", [(1, 0), (3, 2), (3, 4)])
def test_rowcache_column_chunks_equal_the_whole_rows_columns(kw, pad):
    # a chunk's fused column over output columns lo..hi-1 is the whole
    # column's slice, however wide the pad left of each slot
    cache = RowCache(height=2, width=7, channels=2, batch=3, kw=kw, slots=4, pad=pad)
    rng = np.random.default_rng(kw + pad)
    for _ in range(5):  # wraps the four slots
        cache.push_row(rng.standard_normal((2, 7, 3)).astype(np.float32))
        whole = cache.column().buf.copy()
        for lo, hi in ((0, 3), (3, 5), (5, 7), (0, 7)):
            part = cache.column(lo, hi)
            assert part.fit == (2 * kw, 2 * kw * 2 + 1)
            assert np.array_equal(part.buf, whole[:, lo * 3 : hi * 3])


@pytest.mark.parametrize("height,slots", [(1, 4), (2, 4), (3, 6), (2, 3)])
def test_rowcache_column_of_several_rows_sides_the_older_windows_by_the_newer(height, slots):
    # column(lo, hi, rows) is, side by side and oldest first, the column the
    # cache held `rows - 1` .. 0 rows ago, at every start slot of the ring
    cache = RowCache(height=height, width=7, channels=2, batch=3, kw=3, slots=slots, pad=2)
    rng = np.random.default_rng(height + slots)
    held = []
    for _ in range(2 * slots + 1):
        cache.push_row(rng.standard_normal((2, 7, 3)).astype(np.float32))
        held.append({span: cache.column(*span).buf.copy() for span in ((0, 3), (3, 7), (0, 7))})
        for rows in range(1, min(slots - height, len(held) - 1) + 2):
            for span, want in held[-1].items():
                got = cache.column(*span, rows)
                assert got.fit == (3 * height, 3 * height * 2 + 1)
                assert np.array_equal(got.buf[:-1], np.concatenate(
                    [h[span][:-1] for h in held[len(held) - rows:]], axis=1))
                assert np.all(got.buf[-1] == 1) and want.shape[1] * rows == got.buf.shape[1]


def test_rowcache_rows_written_ahead_stay_out_of_the_window():
    # with spare slots a writer stores rows count, count+1 in place; the
    # window still reads rows count-height .. count-1 until it advances
    cache = RowCache(height=2, width=3, channels=1, batch=1, kw=2, slots=4, pad=1)
    rows = [np.full((1, 3, 1), float(t + 1), np.float32) for t in range(4)]
    for t in range(2):
        cache.push_row(rows[t])
    cache.body[2] = rows[2]
    cache.body[3] = rows[3]
    assert np.array_equal(cache.rows_stack()[0, :, :, 0], [[1, 1, 1], [2, 2, 2]])
    cache.count += 1
    assert np.array_equal(cache.rows_stack()[0, :, :, 0], [[2, 2, 2], [3, 3, 3]])
    assert cache.stored_values() == 2 * 3
    with pytest.raises(InvalidParameterError):
        RowCache(height=2, width=3, channels=1, batch=1, kw=3, slots=2, pad=1)  # pad < kw - 1
    with pytest.raises(InvalidParameterError):
        RowCache(height=2, width=3, channels=1, batch=1, kw=1, slots=1, pad=0)  # fewer slots than rows
