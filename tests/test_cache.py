"""The strided firing schedule and row-cache rotation.  The name-only stubs
(`FifoCache`, `RowCache.push_row` and `rows_stack`) are checked with the
frozen tracer, in tests/test_perfbench_tracer.py."""

import copy

import numpy as np
import pytest

from convgen import (
    InvalidParameterError,
    NetworkSpec,
    StridedPlan,
    UnsupportedTopologyError,
    firing_trace,
)
from convgen.cache import RowCache

HOURGLASS = ("down2", "down2", "up2", "up2")


def plan_of(*strides):
    return StridedPlan.from_spec(NetworkSpec("strided", strides=strides))


def firing_layers(plan, t):
    """1-based indices of the layers that compute at least one node at step t."""
    return tuple(i + 1 for i, n in enumerate(plan.nodes[t % plan.period]) if n)


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
# RowCache: written the engine's way, input row t into body[t % slots], and
# read through the column of the output row that reads it
# ---------------------------------------------------------------------------


def _rows_read(cache, t):
    """The rows output row t reads, oldest first, (height, channels, width,
    batch): the last of each row's kw windows in its column is the row itself."""
    buf = cache.column(t).buf[:-1]
    return buf.reshape(cache.height, cache.kw, cache.channels, cache.width, cache.batch)[:, -1]


def test_rowcache_geometry():
    cache = RowCache(height=2, width=8, channels=3, batch=1, kw=1, slots=2, pad=0)
    assert _rows_read(cache, 0).shape == (2, 3, 8, 1)
    assert cache.stored_values() == 2 * 8 * 3
    padded = RowCache(height=3, width=5, channels=2, batch=4, kw=3, slots=3, pad=2)
    assert _rows_read(padded, 0).shape == (3, 2, 5, 4)
    assert padded.column(0).fit == (3 * 3, 3 * 3 * 2 + 1)
    assert padded.stored_values() == 3 * 5 * 2 * 4  # the kw - 1 pad columns are not counted
    for bad in (dict(batch=0, kw=1), dict(batch=1, kw=0)):
        with pytest.raises(InvalidParameterError):
            RowCache(height=2, width=8, channels=3, slots=2, pad=0, **bad)


def test_rowcache_rotation_and_top_border():
    cache = RowCache(height=2, width=4, channels=1, batch=1, kw=1, slots=2, pad=0)
    assert not _rows_read(cache, 0).any()  # first rows read pure zero padding
    r1 = np.arange(4, dtype=np.float32)[None, :, None]
    r2 = (10 + np.arange(4, dtype=np.float32))[None, :, None]
    cache.body[0] = r1
    cache.body[1] = r2
    stack = _rows_read(cache, 2)
    assert np.array_equal(stack[0, 0], r1[0])  # oldest first
    assert np.array_equal(stack[1, 0], r2[0])
    cache.body[2 % 2] = r1
    assert np.array_equal(_rows_read(cache, 3)[0, 0], r2[0])  # r1 rotated out


def test_rowcache_batched_rows():
    cache = RowCache(height=2, width=4, channels=1, batch=3, kw=1, slots=2, pad=0)
    row = np.ones((1, 4, 3), np.float32)
    cache.body[0] = row
    assert _rows_read(cache, 1).shape == (2, 1, 4, 3)
    assert np.array_equal(_rows_read(cache, 1)[1], row)


@pytest.mark.parametrize("kw", [1, 3])
def test_rowcache_windows_are_zero_left_shifts(kw):
    cache = RowCache(height=2, width=4, channels=2, batch=3, kw=kw, slots=2, pad=kw - 1)
    rng = np.random.default_rng(0)
    rows = [rng.standard_normal((2, 4, 3)).astype(np.float32) for _ in range(3)]
    for t, row in enumerate(rows):
        cache.body[t % 2] = row
    got = cache.column(3).buf[:-1].reshape(2, kw, 2, 4, 3)
    for row, windows in zip(rows[1:], got):  # oldest first
        for j in range(kw):
            shift = kw - 1 - j
            assert not windows[j, :, :shift].any()
            assert np.array_equal(windows[j, :, shift:], row[:, : 4 - shift])


def test_rowcache_deepcopy_reads_its_own_ring():
    cache = RowCache(height=2, width=3, channels=1, batch=1, kw=2, slots=2, pad=1)
    cache.body[0] = np.ones((1, 3, 1), np.float32)
    before = _rows_read(cache, 1)  # builds the original's column first
    fork = copy.deepcopy(cache)
    assert np.array_equal(_rows_read(fork, 1), before)
    fork.body[1] = np.full((1, 3, 1), 5.0, np.float32)
    assert _rows_read(fork, 2)[1, 0, 0, 0] == 5.0  # the fork's windows see its own writes
    assert fork.column(2).buf[-2, 0] == 5.0
    assert _rows_read(cache, 2)[1, 0, 0, 0] == 0.0  # and the original is untouched
    assert _rows_read(cache, 1)[1, 0, 0, 0] == 1.0


@pytest.mark.parametrize("kw,pad", [(1, 0), (3, 2), (3, 4)])
def test_rowcache_column_chunks_equal_the_whole_rows_columns(kw, pad):
    # a chunk's fused column over output columns lo..hi-1 is the whole
    # column's slice, however wide the pad left of each slot
    cache = RowCache(height=2, width=7, channels=2, batch=3, kw=kw, slots=4, pad=pad)
    rng = np.random.default_rng(kw + pad)
    for t in range(5):  # wraps the four slots
        cache.body[t % 4] = rng.standard_normal((2, 7, 3)).astype(np.float32)
        whole = cache.column(t + 1).buf.copy()
        for lo, hi in ((0, 3), (3, 5), (5, 7), (0, 7)):
            part = cache.column(t + 1, lo, hi)
            assert part.fit == (2 * kw, 2 * kw * 2 + 1)
            assert np.array_equal(part.buf, whole[:, lo * 3 : hi * 3])


@pytest.mark.parametrize("height,slots", [(1, 4), (2, 4), (3, 6), (2, 3)])
def test_rowcache_column_of_several_rows_sides_the_older_windows_by_the_newer(height, slots):
    # column(row, lo, hi, rows) is, side by side and oldest first, the columns
    # of output rows row - rows + 1 .. row, at every start slot of the ring
    cache = RowCache(height=height, width=7, channels=2, batch=3, kw=3, slots=slots, pad=2)
    rng = np.random.default_rng(height + slots)
    held = []
    for t in range(2 * slots + 1):
        cache.body[t % slots] = rng.standard_normal((2, 7, 3)).astype(np.float32)
        held.append({span: cache.column(t + 1, *span).buf.copy()
                     for span in ((0, 3), (3, 7), (0, 7))})
        for rows in range(1, min(slots - height, len(held) - 1) + 2):
            for span, want in held[-1].items():
                got = cache.column(t + 1, *span, rows)
                assert got.fit == (3 * height, 3 * height * 2 + 1)
                assert np.array_equal(got.buf[:-1], np.concatenate(
                    [h[span][:-1] for h in held[len(held) - rows:]], axis=1))
                assert np.all(got.buf[-1] == 1) and want.shape[1] * rows == got.buf.shape[1]


def test_rowcache_rows_written_ahead_stay_out_of_the_window():
    # with spare slots a writer stores rows 2 and 3 before output row 2 is
    # read; that row still reads rows 0 .. 1, and output row 3 rows 1 .. 2
    cache = RowCache(height=2, width=3, channels=1, batch=1, kw=2, slots=4, pad=1)
    for t in range(4):
        cache.body[t] = np.full((1, 3, 1), float(t + 1), np.float32)
    assert np.array_equal(_rows_read(cache, 2)[:, 0, :, 0], [[1, 1, 1], [2, 2, 2]])
    assert np.array_equal(_rows_read(cache, 3)[:, 0, :, 0], [[2, 2, 2], [3, 3, 3]])
    assert cache.stored_values() == 2 * 3
    with pytest.raises(InvalidParameterError):
        RowCache(height=2, width=3, channels=1, batch=1, kw=3, slots=2, pad=1)  # pad < kw - 1
    with pytest.raises(InvalidParameterError):
        RowCache(height=2, width=3, channels=1, batch=1, kw=1, slots=1, pad=0)  # fewer slots than rows
