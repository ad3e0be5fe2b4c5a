"""2D model tests: naive/cached equivalence, row-at-a-time vertical stream,
raster causality, batch lockstep, state forks, memory bounds, and the PGM
dump."""

import copy
import dataclasses
import pickle
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from convgen import (
    ImageSpec,
    InvalidParameterError,
    OpCounter,
    ScheduleViolationError,
    build_image_network,
    forward_image,
    generate,
    receptive_field_2d,
    write_pgm,
)
from convgen import dilated, image2d
from convgen.cache import RowCache
from convgen.image2d import (
    _pixel_step,
    _schedule,
    image_incremental_init,
    image_incremental_step,
    image_naive_init,
    image_naive_step,
    vertical_row_pass,
)
from convgen.tensor import CEILINGS, Column, conv1d_point, masked_conv2d
from oracles import perturbation_influence

EQUIV_TOL = 1e-5


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        ImageSpec(0, 8)
    with pytest.raises(InvalidParameterError):
        ImageSpec(8, 8, kh=9)  # footprint taller than the image
    with pytest.raises(InvalidParameterError):
        ImageSpec(8, 4, kw=5)
    with pytest.raises(InvalidParameterError):
        ImageSpec(7, 8, row_pair=True)  # odd height cannot halve
    with pytest.raises(InvalidParameterError):
        ImageSpec(8, 8, seed=-1)
    for bad in (dict(height=4.0), dict(width="4"), dict(channels=2.5), dict(kh=None),
                dict(seed=1.5), dict(n_layers=True), dict(row_pair="yes"), dict(row_pair=1),
                dict(row_pair=None)):
        with pytest.raises(InvalidParameterError):
            ImageSpec(**{"height": 4, "width": 4, **bad})
    ImageSpec(8, 8)  # defaults are valid
    assert ImageSpec(np.int32(8), np.int64(8)) == ImageSpec(8, 8)
    assert ImageSpec(8, 8, row_pair=np.True_) == ImageSpec(8, 8, row_pair=True)


# ---------------------------------------------------------------------------
# size ceilings
# ---------------------------------------------------------------------------

CEILING_SPEC = ImageSpec(8, 6, channels=3, n_layers=3, kh=3, kw=2, h_kw=3, row_pair=True, seed=4)
IMAGES = {"pair": CEILING_SPEC, "no-pair": dataclasses.replace(CEILING_SPEC, row_pair=False),
          "one-channel": ImageSpec(5, 4, channels=1, n_layers=1, kh=1, kw=1, h_kw=1)}


def _state_floats(state) -> int:
    return sum(rc.ring.size for rc in state.row_caches) + state.last.size + state.buf.size


@pytest.mark.parametrize("entry, name, size", [  # ids: the constants these table entries replaced
    ("weight_floats", "MAX_WEIGHT_FLOATS", lambda net: sum(
        w.fused.size for b in net.blocks for w in (b.vert, b.horiz, b.link, b.down, b.up)
        if w is not None) + net.proj.fused.size),
    ("state_floats", "MAX_STATE_FLOATS", lambda net: _state_floats(image_incremental_init(net, 1))),
    ("naive_floats", "MAX_NAIVE_FLOATS", lambda net: net.spec.sizes()["naive_floats"]),
    ("schedule_steps", "MAX_SCHEDULE_STEPS", lambda net: net.period),
], ids=lambda v: v if str(v).startswith("MAX_") else "")
@pytest.mark.parametrize("spec", IMAGES.values(), ids=IMAGES.keys())
def test_image_ceilings_are_the_network_sizes(monkeypatch, entry, name, size, spec):
    # at a ceiling equal to a network's size it builds; one below, it is refused
    net = build_image_network(spec)
    monkeypatch.setitem(CEILINGS, entry, (size(net), CEILINGS[entry][1]))
    assert build_image_network(spec) == net
    monkeypatch.setitem(CEILINGS, entry, (size(net) - 1, CEILINGS[entry][1]))
    monkeypatch.setattr(dilated, "_DRAWS", {})
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew weights"))
    with pytest.raises(InvalidParameterError, match="too large"):
        build_image_network(spec)
    assert not dilated._DRAWS  # refused before its draw was planned


def _scratch_floats(state) -> int:
    """The floats of the arrays a state's `scratch` and its rings' columns hold,
    not counting the views they take of the state's own buffers."""
    own = {id(a) for a in (*(rc.ring for rc in state.row_caches), state.last, state.buf)}
    held, todo = {}, [*state.scratch.values(),
                      *(column for rc in state.row_caches for column in rc._columns.values())]
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            if id(x) not in own:
                held[id(x)] = x.size
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
    return sum(held.values())


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("spec, tight", [
    *((spec, True) for spec in IMAGES.values()),
    (ImageSpec(32, 32, row_pair=True), True), (ImageSpec(32, 32), True),  # perfbench's
    (ImageSpec(10, 5, channels=1, n_layers=4, kh=2, kw=1, h_kw=3), False),  # n >= W - 1
    (ImageSpec(14, 1, channels=5, n_layers=3, kh=2, kw=1, h_kw=1), False),  # n > W = 1
    (ImageSpec(2, 3, channels=1, n_layers=2, kh=2, kw=1, h_kw=3, row_pair=True), False),
], ids=[*IMAGES, "perfbench", "perfbench-no-pair", "n4-w5", "w1", "w3"])
def test_scratch_bound_covers_a_whole_images_scratch(spec, tight, batch):
    # the record's closed form is at least what a whole image builds on first
    # use, and at the ceiling tests' and perfbench's geometries within 2x of it
    net = build_image_network(spec)
    state = image_incremental_init(net, batch)
    for _ in range(spec.height * spec.width):
        image_incremental_step(net, state)
    held, bound = _scratch_floats(state), spec.sizes()["scratch_floats"] * batch
    assert held <= bound and (bound <= 2 * held or not tight), (held, bound)


@pytest.mark.parametrize("spec", [CEILING_SPEC, ImageSpec(32, 32, row_pair=True),
                                  ImageSpec(16, 24, channels=16, n_layers=2, kw=5, h_kw=4)],
                         ids=["small", "perfbench", "wide"])
def test_naive_bound_covers_a_naive_steps_peak(spec):
    net = build_image_network(spec)
    state = image_naive_init(net, 2)
    image_naive_step(net, state)
    tracemalloc.start()
    try:
        image_naive_step(net, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 * spec.sizes()["naive_floats"]


@pytest.mark.parametrize("fields", [
    dict(height=10**6, width=10**6), dict(height=2, width=2**40, kh=1),
    dict(height=8, width=8, channels=10**5), dict(height=8, width=8, n_layers=2**40),
    dict(height=8, width=2**14 + 1, channels=1, n_layers=1),  # the schedule alone
    dict(height=2**64 - 1, width=2**64 - 1, channels=2**64 - 1, n_layers=2**64 - 1),
], ids=lambda f: "-".join(map(str, f.values())))
def test_unbuildable_image_network_is_refused_before_it_allocates(monkeypatch, fields):
    spec = ImageSpec(**fields)
    memo = list(dilated._DRAWS)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew weights"))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="too large"):
            build_image_network(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 and list(dilated._DRAWS) == memo  # nothing memoised


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_layers", [3, 4, 5])
def test_equivalence_8x8(seed, n_layers):
    spec = ImageSpec(8, 8, channels=4, n_layers=n_layers, seed=seed)
    net = build_image_network(spec)
    a = generate(net, engine="naive")
    b = generate(net)
    assert a.shape == (64, 1)  # one row per raster pixel
    assert np.isfinite(a).all()
    assert np.max(np.abs(a - b)) <= EQUIV_TOL


@pytest.mark.parametrize(
    "geometry,batch",
    [(dict(seed=seed), 1) for seed in range(3)]
    + [(dict(height=10, width=7, kh=3, kw=5, h_kw=3, seed=5), 3)],
    ids=["0", "1", "2", "wide-batch3"],
)
def test_equivalence_row_pair(geometry, batch):
    spec = ImageSpec(**{"height": 8, "width": 8, **geometry}, channels=4, n_layers=3, row_pair=True)
    net = build_image_network(spec)
    a = generate(net, engine="naive", batch=batch)
    b = generate(net, batch=batch)
    assert np.max(np.abs(a - b)) <= EQUIV_TOL


@pytest.mark.parametrize("row_pair", [False, True])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("h_kw", [1, 2, 3])
def test_single_block_edge_geometry(h_kw, batch, row_pair):
    # one block: it writes the head's h, and the head's y is its one-channel input
    spec = ImageSpec(6, 5, channels=3, n_layers=1, h_kw=h_kw, row_pair=row_pair, seed=h_kw)
    net = build_image_network(spec)
    a = generate(net, engine="naive", batch=batch)
    b = generate(net, batch=batch)
    assert b.shape == (30, batch)
    assert np.max(np.abs(a - b)) <= EQUIV_TOL


def test_equivalence_wide_kernels():
    spec = ImageSpec(10, 10, channels=3, n_layers=3, kh=3, kw=5, h_kw=3, seed=5)
    net = build_image_network(spec)
    assert np.max(np.abs(generate(net, engine="naive") - generate(net))) <= EQUIV_TOL


def test_one_pixel_image_is_pure_bias_path():
    spec = ImageSpec(1, 1, channels=3, n_layers=2, kh=1, kw=1, h_kw=1, seed=4)
    net = build_image_network(spec)
    # hand-rolled bias path: every conv input is zero padding
    v = np.zeros(1, np.float32)
    h = np.zeros(1, np.float32)
    for block in net.blocks:
        v = np.tanh(block.vert.bias + block.vert.tap_mats[0] @ v * 0)
        # vertical tap reads row -1 => zero; horizontal tap reads col -1 => zero
        h = np.tanh(block.horiz.bias + block.link.kernel[:, :, 0] @ v)
    want = net.proj.bias + net.proj.tap_mats[0] @ h
    got = generate(net, engine="naive")
    assert got.shape == (1, 1)
    assert np.allclose(got[0, 0], want[0], atol=1e-6)
    assert np.allclose(generate(net)[0, 0], want[0], atol=1e-6)


def test_naive_pass_count_is_h_times_w():
    spec = ImageSpec(5, 6, channels=2, n_layers=2, seed=1)
    net = build_image_network(spec)
    counter = OpCounter()
    generate(net, engine="naive", counter=counter)
    per_pass = OpCounter()
    forward_image(net, np.zeros((1, 5, 6, 1), np.float32), per_pass)
    assert counter.node_evals == 5 * 6 * per_pass.node_evals
    assert counter.macs == 5 * 6 * per_pass.macs


# ---------------------------------------------------------------------------
# vertical row pass
# ---------------------------------------------------------------------------


def test_vertical_row_pass_top_border_is_zero_context():
    spec = ImageSpec(6, 6, channels=4, n_layers=2, seed=2)
    net = build_image_network(spec)
    state = image_incremental_init(net)
    rows = vertical_row_pass(net, state, 0)
    # row 0 sees only zero padding: equals tanh applied to the bias column
    want0 = np.tanh(net.blocks[0].vert.bias)[:, None, None]
    assert np.allclose(rows[0], np.broadcast_to(want0, rows[0].shape), atol=1e-6)


def test_vertical_rows_match_full_image_pass():
    # cached per-row vertical features == the full-image vertical feature map
    spec = ImageSpec(6, 5, channels=3, n_layers=3, seed=8)
    net = build_image_network(spec)
    state = image_incremental_init(net)
    recorded, pixels = [], []
    for r in range(spec.height):
        rows = vertical_row_pass(net, state, r)
        recorded.append([row.copy() for row in rows])
        for _ in range(spec.width):
            pixels.append(_pixel_step(net, state))
    v = np.concatenate(pixels).reshape(1, spec.height, spec.width, 1)  # the final image
    for li, block in enumerate(net.blocks):
        v = np.tanh(masked_conv2d(block.vert, v[..., 0] if v.ndim == 4 else v, "vertical"))
        for r in range(spec.height):
            got = recorded[r][li][:, :, 0]
            assert np.max(np.abs(got - v[:, r, :])) <= EQUIV_TOL


def _column_reference(rows, t, kh, kw):
    """Output row t's vertical conv column rebuilt from the rows written so
    far (zero above row 0) with explicit zero-left shifts: (kh*kw*in + 1, W*B)."""
    in_ch, W, B = rows[0].shape
    column = np.zeros((kh, kw, in_ch, W, B), np.float32)
    for i in range(kh):
        if t - kh + i >= 0:
            for j in range(kw):
                shift = kw - 1 - j
                column[i, j, :, shift:] = rows[t - kh + i][:, : W - shift]
    return np.concatenate([column.reshape(-1, W * B), np.ones((1, W * B), np.float32)])


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("kw", [1, 2, 3, 5])
@pytest.mark.parametrize("kh", [1, 2, 3])
def test_vconv_row_matches_shifted_rows_reference(kh, kw, batch):
    # rows written the engine's way, row t into body[t % slots] of a ring of
    # the engine's size: at every ring position the column of output row t is
    # the shifted rows t-kh .. t-1, and with rows=2, a burst's read, the
    # columns of rows t-1 and t side by side; one dot over it is the row
    spec = ImageSpec(3, 6, channels=3, n_layers=2, kh=kh, kw=kw, seed=kh * 10 + kw)
    w = build_image_network(spec).blocks[1].vert
    slots = kh + 2 + kh % 2
    cache = RowCache(kh, spec.width, spec.channels, batch, kw, slots, kw - 1)
    rng = np.random.default_rng(batch)
    rows = [rng.standard_normal((spec.channels, spec.width, batch)).astype(np.float32)
            for _ in range(2 * slots + 2)]  # every ring position, wrapped twice
    for t, row in enumerate(rows):
        want = _column_reference(rows, t, kh, kw)
        assert np.array_equal(cache.column(t).buf, want)
        if t:
            pair = cache.column(t, 0, spec.width, 2).buf
            older = _column_reference(rows, t - 1, kh, kw)
            assert np.array_equal(pair[:-1], np.concatenate([older[:-1], want[:-1]], axis=1))
        counter = OpCounter()
        got = conv1d_point(w, cache.column(t), counter)
        assert np.array_equal(got, np.dot(w.fused, want))
        assert counter.node_evals == spec.width * batch
        assert counter.macs == w.macs * spec.width * batch
        cache.body[t % slots] = row


def test_vertical_row_pass_out_of_order_rejected(monkeypatch):
    spec = ImageSpec(4, 4, channels=2, n_layers=2, seed=0)
    net = build_image_network(spec)
    state = image_incremental_init(net)
    with pytest.raises(ScheduleViolationError):
        vertical_row_pass(net, state, 1)  # skipping row 0
    vertical_row_pass(net, state, 0)
    with pytest.raises(ScheduleViolationError):
        vertical_row_pass(net, state, 0)  # double pass
    state2 = image_incremental_init(net)
    with pytest.raises(ScheduleViolationError):
        _pixel_step(net, state2)  # pixel before the row pass
    # tampered placements, in `_schedule`'s format, of the next pair's
    # vertical ops on row 1's steps: one that never computes block 1's row 3
    # leaves row 2's pass short; one that runs block 1's row 3 before its
    # row 2, or block 0's row 2 before row 1's pixels, fails at once
    groups, steps, start, late = _schedule(spec.width, spec.n_layers, False)
    lead, lag, alone = steps
    assert lag == (((0, 2, 0, 4),), ((1, 2, 0, 4),), ((1, 3, 0, 4),), (1,))
    for tampered, fails_at in [((lead, (*lag[:2], None, lag[3]), alone), "row pass"),
                               ((lead, (lag[0], lag[2], lag[1], lag[3]), alone), "step"),
                               ((lead[:2] + (lead[2] + lag[0], lead[3]), (None, *lag[1:]), alone),
                                "step")]:
        monkeypatch.setattr("convgen.image2d._schedule",
                            lambda w, n, p, steps=tampered: (groups, steps, start, late))
        state = image_incremental_init(net)
        if fails_at == "row pass":
            for _ in range(2 * spec.width):
                image_incremental_step(net, state)
            with pytest.raises(ScheduleViolationError, match="not all computed"):
                vertical_row_pass(net, state, 2)
        else:
            with pytest.raises(ScheduleViolationError, match="out of order"):
                for _ in range(2 * spec.width):
                    image_incremental_step(net, state)


@pytest.mark.parametrize("engine", ["naive", "cached"])
def test_public_step_walks_the_raster_and_stops_at_the_end(engine):
    spec = ImageSpec(4, 5, channels=2, n_layers=2, seed=3)
    net = build_image_network(spec)
    init, step = {
        "naive": (image_naive_init, image_naive_step),
        "cached": (image_incremental_init, image_incremental_step),
    }[engine]
    state = init(net, batch=2)
    pixels = [step(net, state) for _ in range(spec.height * spec.width)]
    assert all(p.shape == (2,) for p in pixels)
    got = np.stack(pixels)
    assert np.array_equal(got, generate(net, engine=engine, batch=2))
    # in raster order, each output is the prediction of the image the outputs form
    want = forward_image(net, got.reshape(1, spec.height, spec.width, 2)).reshape(-1, 2)
    assert np.max(np.abs(got - want)) <= EQUIV_TOL
    with pytest.raises(ScheduleViolationError):
        step(net, state)


def test_vertical_rows_invariant_to_current_row_pixels():
    # the vertical stream for row r never reads row r itself
    spec = ImageSpec(6, 6, channels=3, n_layers=2, seed=3)
    net = build_image_network(spec)
    rng = np.random.default_rng(0)
    img = rng.uniform(-1, 1, (1, 6, 6, 1)).astype(np.float32)
    v1 = np.tanh(masked_conv2d(net.blocks[0].vert, img[..., 0], "vertical"))
    pert = img.copy()
    pert[0, 3, :, 0] += 1.0
    v2 = np.tanh(masked_conv2d(net.blocks[0].vert, pert[..., 0], "vertical"))
    assert np.array_equal(v1[:, 3, :], v2[:, 3, :])
    assert np.array_equal(v1[:, :4, :], v2[:, :4, :])


# ---------------------------------------------------------------------------
# counters / memory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("row_pair", [False, True])
def test_per_pixel_nodes_independent_of_height(row_pair):
    # 3 horizontal + 3 vertical (one row pass per row) + 1 head per pixel; the
    # row pair adds one down row and two up rows per two image rows; odd
    # heights (without the pair) end with a row alone
    per_pixel = 8.5 if row_pair else 7
    for H in (6, 12, 18) if row_pair else (6, 7, 12, 13, 18):
        spec = ImageSpec(H, 6, channels=4, n_layers=3, row_pair=row_pair, seed=1)
        net = build_image_network(spec)
        state = image_incremental_init(net, batch=2)
        assert state.counter.node_evals == 0  # row work runs in the row passes
        for _ in range(H * 6):
            image_incremental_step(net, state)
        assert state.counter.node_evals == 2 * H * 6 * per_pixel
        # no vertical row beyond the image
        assert state.done == [H * 6] * 3


def test_cached_rows_values_counts_the_held_row_while_its_link_waits():
    # the benchmark's image shape.  Row 2j's step c runs its group from
    # pixel c (c = 3, 6, .., 30), row 2j+1's from c as well from step 6 on
    # and at step 4 from 3; their groups from 0 ran before, at the image's
    # start or on row 2j-1's step 8.  Row 2j+1's steps 1 .. 8 run the
    # next pair's work: block 0's burst in three chunks, blocks 1 and 2's
    # rows 2j+2 and 2j+3, and its first group.  Counted: the rings (the
    # image's with one row more, the odd row a burst reads a row older), the
    # rows written ahead of their readers' windows (on row 2j, the last
    # block's row 2j+1; on row 2j+1, from the burst's first chunk on, two
    # rows of blocks 0 .. 2), and the queued pixels
    spec = ImageSpec(32, 32, channels=8, n_layers=3, row_pair=True, seed=0)
    net = build_image_network(spec)
    groups, (lead, lag), start, late = _schedule(32, 3, True)
    assert [c for c, items in enumerate(lead) if items] == [3, 4, *range(6, 31, 3)]
    assert [op[:2] for op in lag[1:8] for op in op] == [
        (0, 2), (0, 2), (0, 2), (1, 2), (2, 2), (1, 3), (2, 3)]
    assert lag[8] == (1,) and groups[1] == tuple(((2, 0, i + 1), (3, 0, i + 1)) for i in range(3))
    batch = 16
    row = spec.channels * spec.width * batch
    held = (spec.kh * (1 + 2 * spec.channels) + 1) * spec.width * batch  # the rings
    state = image_incremental_init(net, batch=batch)
    peak = 0
    for t in range(spec.height * spec.width):
        image_incremental_step(net, state)
        r, c = divmod(t + 1, spec.width)  # row r has run its steps 0 .. c-1
        below = r + 1 < spec.height  # the last row computes nothing below
        if r == spec.height:
            ahead = queued = 0
        elif r % 2 == 0:
            ahead, groups_done = 1, max(0, (c - 1) // 3)
            queued = min(32, 3 + 3 * groups_done) - c  # row r's
            queued += min(32, 3 * (1 + (c >= 5) + max(0, groups_done - 1)))  # row r+1's
        else:
            ahead = 2 * (below and c >= 2)
            queued = 32 - c + 6 * (below and c >= 9)
        assert state.cached_rows_values() == held + row * ahead + batch * queued, (r, c)
        peak = max(peak, state.cached_rows_values())
    assert 4 * state.cached_rows_values() == 71680
    assert 4 * peak == 4 * (held + 2 * row + batch * 30) == 106368  # after the first burst chunk


def test_row_cache_memory_bounded_by_kh():
    sizes = {}
    for H in (8, 16, 24):
        spec = ImageSpec(H, 8, channels=4, n_layers=3, seed=1)
        net = build_image_network(spec)
        state = image_incremental_init(net)
        for r in range(spec.height):
            vertical_row_pass(net, state, r)
            for _ in range(spec.width):
                _pixel_step(net, state)
        sizes[H] = state.cached_rows_values()
    assert len(set(sizes.values())) == 1  # independent of image height


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_batch_lockstep_matches_single():
    spec = ImageSpec(8, 8, channels=4, n_layers=3, seed=3)
    net = build_image_network(spec)
    single = generate(net)
    batched = generate(net, batch=4)
    assert batched.shape == (64, 4)
    # elements are bitwise identical to each other (pure lockstep) ...
    for i in range(1, 4):
        assert np.array_equal(batched[:, i], batched[:, 0])
    # ... and match the solo run up to BLAS-shape float noise
    assert np.max(np.abs(batched[:, :1] - single)) <= 1e-6
    naive_batched = generate(net, engine="naive", batch=2)
    assert np.max(np.abs(naive_batched[:, :1] - generate(net, engine="naive"))) <= 1e-6


@pytest.mark.parametrize("width", [7, 9])
def test_odd_batches_match_single_within_tolerance(width):
    # the elements of one lockstep run are not always bitwise equal: with
    # seed 1 (x86-64, numpy 2.4.6, OpenBLAS 0.3.31), B = 3, 5, 7 at width 7
    # and B = 9, 11 at width 9 gave elements up to 1.4e-9 apart, since a dot
    # over W*B or g*B columns may take another BLAS path; every element must
    # stay within EQUIV_TOL of the B=1 run
    net = build_image_network(ImageSpec(4, width, channels=8, n_layers=3, seed=1))
    single = generate(net)
    for batch in (3, 5, 7, 9, 11):
        batched = generate(net, batch=batch)
        assert batched.shape == (4 * width, batch)
        assert np.max(np.abs(batched - single)) <= EQUIV_TOL, batch


def test_batch_validation():
    spec = ImageSpec(4, 4, channels=2, n_layers=2, seed=0)
    net = build_image_network(spec)
    with pytest.raises(InvalidParameterError):
        generate(net, engine="naive", batch=0)
    with pytest.raises(InvalidParameterError):
        generate(net, batch=-1)
    with pytest.raises(InvalidParameterError):
        generate(net, prime=(0.5,))  # the image engines take no input
    for kwargs in (dict(batch=2.5), dict(batch="2"), dict(batch=True), dict(n_steps=2.5),
                   dict(n_steps="3")):
        with pytest.raises(InvalidParameterError):
            generate(net, **kwargs)
    for init in (image_naive_init, image_incremental_init):
        with pytest.raises(InvalidParameterError):
            init(net, batch=2.5)


def _buffers(state):
    """Every array an image state owns: its rings, the last block's rows and
    the blocks' histories."""
    return [*(rc.ring for rc in state.row_caches), state.last, state.buf]


def test_the_pair_adds_no_buffer_to_a_state():
    # the benchmark's image: with the pair, a state's buffers are those of a
    # state without it, C*W*B floats fewer than the 299520 bytes a paired
    # state owned while it carried block 0's odd vconv row between bursts;
    # the pair itself is the spec's bool
    spec = ImageSpec(32, 32, channels=8, n_layers=3, row_pair=True, seed=0)
    paired = image_incremental_init(build_image_network(spec), batch=16)
    single = image_incremental_init(
        build_image_network(dataclasses.replace(spec, row_pair=False)), batch=16)
    nbytes = sum(a.nbytes for a in _buffers(paired))
    assert nbytes == sum(a.nbytes for a in _buffers(single)) == 299520 - 8 * 32 * 16 * 4
    assert paired.row_pair is True and single.row_pair is False


@pytest.mark.parametrize("row_pair", [False, True])
def test_forked_state_continues_bit_exact(row_pair):
    # fork mid-row 2: with the pair, its burst has left one up row ahead
    spec = ImageSpec(6, 6, channels=3, n_layers=2, row_pair=row_pair, seed=12)
    net = build_image_network(spec)
    whole = generate(net, batch=2)
    state = image_incremental_init(net, batch=2)
    fork_at = 2 * 6 + 3
    for _ in range(fork_at):
        image_incremental_step(net, state)
    fork = copy.deepcopy(state)
    assert fork.counter is not state.counter
    assert not any(np.shares_memory(a, b) for a in _buffers(fork) for b in _buffers(state))
    outs = {"state": [], "fork": []}
    for _ in range(36 - fork_at):
        for name, st in (("state", state), ("fork", fork)):  # interleaved
            outs[name].append(image_incremental_step(net, st))
    for name in outs:
        assert np.array_equal(np.stack(outs[name]), whole[fork_at:])
    assert fork.counter.snapshot() == state.counter.snapshot()
    # a pickled state rebuilds its views over its own buffers and continues bit-exact
    state = image_incremental_init(net, batch=2)
    for _ in range(fork_at):
        image_incremental_step(net, state)
    restored = pickle.loads(pickle.dumps(state))
    assert not any(np.shares_memory(a, b) for a in _buffers(restored) for b in _buffers(state))
    assert restored.cached_rows_values() == state.cached_rows_values()
    got = [image_incremental_step(net, restored) for _ in range(36 - fork_at)]
    # every group op views the restored buffer it must lie over, for every
    # pair of ring slots: its windows block 0's image ring (block 0) or
    # `buf`, its vertical rows block i's outputs (block i+1's ring or
    # `last`), its dest `buf` (the last block's: its group's head column);
    # each group's pixels view the image ring; none views the original
    image = restored.row_caches[0].ring
    originals = _buffers(state) + [group[2].buf for group in state.groups.values()]
    for _, ops, head, y_dest, *_ in restored.groups.values():
        views = [(y, image) for y in y_dest]
        for i, windows, _, vrows, *_, dest in ops:
            views += [(w, restored.buf if i else image) for w in windows]
            views += [(v, restored.outputs(i)) for v in vrows]
            views.append((dest, restored.buf if i < spec.n_layers - 1 else head.buf))
        assert all(np.shares_memory(view, owner) for view, owner in views)
        assert not any(np.shares_memory(view, a) for view, _ in views for a in originals)
    assert np.array_equal(np.stack(got), whole[fork_at:])
    assert (state.r, state.c) == divmod(fork_at, 6)  # stepping the copy left the original alone


@pytest.mark.parametrize("row_pair", [False, True])
def test_group_layouts_are_compiled_once_per_spec_and_batch(row_pair):
    # a group's view offsets depend only on (spec geometry, batch): a second
    # state, a copy, a pickle and a network of another seed build their views
    # from what the first state compiled, and another batch compiles its own
    spec = ImageSpec(6, 8, channels=3, n_layers=3, row_pair=row_pair, seed=97)
    geometry = image2d._geometry(spec)
    assert len(geometry) == len(dataclasses.fields(spec)) - 1  # all but the seed
    net = build_image_network(spec)
    generate(net, batch=2)
    compiled = {key: layout for key, layout in image2d._LAYOUTS.items() if key[0] == geometry}
    assert {batch for _, batch, _ in compiled} == {2}
    state = image_incremental_init(net, batch=2)
    for _ in range(20):
        image_incremental_step(net, state)
    for fork in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        for _ in range(28):
            image_incremental_step(net, fork)
        assert fork.groups  # bound its own views
    reseeded = build_image_network(dataclasses.replace(spec, seed=98))
    assert image2d._geometry(reseeded.spec) == geometry
    generate(reseeded, batch=2)
    assert {key for key in image2d._LAYOUTS if key[0] == geometry} == compiled.keys()
    assert all(image2d._LAYOUTS[key] is layout for key, layout in compiled.items())
    generate(net, batch=3)
    assert {key[1] for key in image2d._LAYOUTS if key[0] == geometry} == {2, 3}


@pytest.mark.parametrize("row_pair", [False, True])
def test_state_continues_on_an_equal_network_rebuilt_by_pickle(row_pair):
    # a state holds no weights: stepped partway (mid-row 2) on one network and
    # continued on a distinct but equal one, it matches the uninterrupted run
    net = build_image_network(ImageSpec(6, 6, channels=3, n_layers=2, row_pair=row_pair, seed=13))
    other = pickle.loads(pickle.dumps(net))
    assert other == net and other is not net
    whole, split = image_incremental_init(net, batch=2), image_incremental_init(net, batch=2)
    want = np.stack([image_incremental_step(net, whole) for _ in range(36)])
    got = np.stack([image_incremental_step(net if t < 15 else other, split)
                    for t in range(36)])
    assert np.all(np.abs(got.astype(np.float64) - want) <= 1e-5)
    assert split.counter.snapshot() == whole.counter.snapshot()


def test_step_outputs_are_fresh_arrays():
    # a returned pixel row is not a view of the state: later steps leave it alone
    spec = ImageSpec(4, 4, channels=3, n_layers=2, seed=7)
    net = build_image_network(spec)
    state = image_incremental_init(net, batch=3)
    outs, copies = [], []
    for _ in range(16):
        outs.append(image_incremental_step(net, state))
        copies.append(outs[-1].copy())
    for y, kept in zip(outs, copies):
        assert np.array_equal(y, kept)
        assert not any(np.shares_memory(y, a) for a in _buffers(state))
    assert np.array_equal(generate(net, batch=3), np.stack(outs))


# ---------------------------------------------------------------------------
# wavefront groups: one pixel step in n_layers computes n_layers pixels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("row_pair", [False, True])
@pytest.mark.parametrize("h_kw", [1, 2, 3])
@pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
def test_grouped_step_matches_forward_image(n_layers, h_kw, row_pair, batch):
    # widths around the group size: one partial group, one whole group, a
    # group and one pixel, and two groups and one pixel; kh = 1 keeps only
    # the row above in each cache, kh = 3 wraps a deeper ring; without the
    # pair, an odd height ends with a row alone
    for kh, height in product((1, 2, 3), (4,) if row_pair else (4, 5)):
        for width in (n_layers - 1, n_layers, n_layers + 1, 2 * n_layers + 1):
            if width < h_kw:
                continue
            spec = ImageSpec(height, width, channels=3, n_layers=n_layers, kh=kh,
                             kw=min(3, width), h_kw=h_kw, row_pair=row_pair,
                             seed=10 * n_layers + width)
            net = build_image_network(spec)
            out = generate(net, batch=batch)  # raster order: row i is pixel i of every image
            want = forward_image(net, out.reshape(1, height, width, batch)).reshape(-1, batch)
            assert np.max(np.abs(out - want)) <= EQUIV_TOL, f"kh {kh}, {height}x{width}"


def _item_work(net, item, base, batch):
    """(MACs, nodes) of a `_schedule` item for the pair from row `base`,
    counting rows inside the image only.  A group: each block's node (the
    horizontal conv with its link folded in) over its columns, and the head
    over the last block's.  A vertical op (i, t, lo, hi): block i's vconv
    node per column; on a burst, an even row of block 0 with the pair, the
    vconv nodes of rows t - 1 and t, the down node and the two up nodes."""
    spec = net.spec
    if isinstance(item, int):
        groups = _schedule(spec.width, spec.n_layers, spec.row_pair)[0]
        cols = [[(hi - lo) * batch for d, lo, hi in parts if base + d < spec.height]
                for parts in groups[item]]
        macs = sum(sum(n) * (b.horiz.macs + b.link.macs) for n, b in zip(cols, net.blocks))
        return macs + sum(cols[-1]) * net.proj.macs, sum(map(sum, cols)) + sum(cols[-1])
    i, t, lo, hi = item
    if base + t >= spec.height:
        return 0, 0
    block, n = net.blocks[i], (hi - lo) * batch
    if i == 0 and spec.row_pair and (base + t) % 2 == 0:
        return n * (2 * block.vert.macs + block.down.macs + block.up.macs), 5 * n
    return n * block.vert.macs, n


def _items_at(spec, r, c):
    """(item, pair base) of what step (r, c) runs: at a pair's start what
    `_schedule` leaves to it (at row 0, the first pair's), then the step's
    own (an odd height's last row has its own steps)."""
    _, steps, start, late = _schedule(spec.width, spec.n_layers, spec.row_pair)
    base = r - r % 2
    items = [(item, max(0, base - 2)) for item in (late if r else start)] if c == r % 2 == 0 else []
    alone = r + 1 == spec.height and r % 2 == 0  # an odd height's last row
    return items + [(item, base) for item in steps[2 if alone else r % 2][c] or ()]


@pytest.mark.parametrize("row_pair", [False, True])
@pytest.mark.parametrize("n_layers,h_kw,width",
                         [(1, 1, 3), (2, 2, 5), (3, 2, 7), (3, 3, 8), (4, 1, 3), (3, 2, 11)])
def test_grouped_step_counts_every_row_exactly(n_layers, h_kw, width, row_pair):
    # after a pair's last pixel, the counts are those of its rows and the
    # rows above in full (per column each block's horizontal node, its link
    # folded in, and vertical node, and the head; with the pair, each even
    # row's burst: the vconv nodes of the row above it and its own, a down
    # node and two up nodes; row -1's burst half is zero padding and the
    # last row's vconv runs in no burst), plus the next pair's vertical rows
    # (without the pair, block 0's second row follows the next pair's first
    # row) and its first group, less what `_schedule` leaves to the next
    # pair's start; its queues then hold that group's pixels.  After each
    # row's last pixel, a pixel step before the next row's pass raises
    batch = 2
    for height in (4,) if row_pair else (4, 5):
        spec = ImageSpec(height, width, channels=3, n_layers=n_layers, kw=min(3, width),
                         h_kw=h_kw, row_pair=row_pair, seed=n_layers)
        net = build_image_network(spec)
        _, _, start, late = _schedule(width, n_layers, row_pair)
        n = width * batch
        horizontal = (n * (sum(b.horiz.macs + b.link.macs for b in net.blocks) + net.proj.macs),
                      n * (n_layers + 1))
        state = image_incremental_init(net, batch=batch)
        for r in range(height):
            for _ in range(width):
                image_incremental_step(net, state)
            with pytest.raises(ScheduleViolationError, match="before vertical_row_pass"):
                _pixel_step(net, state)  # the next row's pixels need its row pass first
            if r % 2 == 0 and r + 1 < height:
                continue
            work = [horizontal] * (r + 1) + [_item_work(net, start[-1], r + 1, batch)]
            work += [_item_work(net, (i, t, 0, width), 0, batch) for i in range(n_layers)
                     for t in range(r + 2 + (i > 0 or row_pair)) if not (
                         row_pair and i == 0 and t % 2)]  # a burst computes two rows
            work += [tuple(-x for x in _item_work(net, item, r - 1, batch)) for item in late]
            assert state.counter.snapshot() == tuple(map(sum, zip(*work))), (height, r)
            ran = r + 1 < height and start[-1] + 1 not in late  # the next pair's first group
            assert sum(map(len, state.queues)) == ran * min(n_layers, width) * (1 + row_pair)


def _check_placement(width, n_layers, row_pair):
    """The compiled placement's invariants: each row's groups tile each
    block's columns once, in order, the pair's first group before its steps
    (the next pair's on row 2j+1's), its first group step on one row (n >
    1), two rows' parts equally wide; without the pair, block 0's row 2j+1
    in chunks right after the group of row 2j whose pixels they read, each
    before row 2j+1's groups that read it.  Row 2j+1's steps, its first
    unless too few, take the next pair's work one item each, in order:
    block 0's row 2j+2 (a burst in up to three chunks with the pair),
    blocks 1 .. n-1's rows 2j+2 and then 2j+3, and its first group; what
    they cannot take is `late`.  Returns the number of block 0 chunks."""
    groups, steps, start, late = _schedule(width, n_layers, row_pair)
    first, after = start[-1], start[-1] + 1
    flat = [(d * width + c, item) for d in (0, 1) for c, items in enumerate(steps[d]) if items
            for item in items]
    runs = [(p, g) for p, g in flat if isinstance(g, int) and g != after]
    for d, i in product((0, 1), range(n_layers)):
        spans = [(lo, hi) for g in [first] + [g for _, g in runs] for e, lo, hi in groups[g][i]
                 if e == d]
        assert [lo for lo, _ in spans] == [0, *(hi for _, hi in spans[:-1])]
        assert spans[-1][1] == width
    assert all(len({hi - lo for _, lo, hi in parts}) == 1 for g in groups for parts in g)
    assert groups[after] == tuple(tuple((d + 2, lo, hi) for d, lo, hi in parts)
                                  for parts in groups[first])
    assert len(groups[first][-1]) == 1 + row_pair
    if n_layers > 1 and width > n_layers:
        assert len(groups[runs[0][1]][-1]) == 1  # the pair's first group step: one row
    ops = [(p, op) for p, op in flat if not isinstance(op, int)]
    chunks = [(p, op[2:]) for p, op in ops if op[:2] == (0, 1) and not row_pair]
    if not row_pair:
        assert [span for _, span in chunks] == [(c, min(c + n_layers, width))
                                                for c in range(0, width, n_layers)]
        assert all(p == lo + 1 or p == lo == width - 1 for p, (lo, _) in chunks)
        for p, g in runs:  # each group of row 2j+1 after the chunk its block 0 reads
            need = max([hi for d, _, hi in groups[g][0] if d], default=0)
            assert all(q <= p for q, (lo, _) in chunks if lo < need)
    placed = [(p, op) for p, op in flat if p >= width and (
        op == after or not isinstance(op, int) and not (op[:2] == (0, 1) and not row_pair))]
    work = [op for _, op in placed] + list(late)
    burst = [op[2:] for op in work if op != after and op[:2] == (0, 2)]
    assert work == [(0, 2, *span) for span in burst] + [
        (i, t, 0, width) for t in (2, 3) for i in range(1, n_layers)] + [after]
    assert [lo for lo, _ in burst] == [0, *(hi for _, hi in burst[:-1])] and burst[-1][1] == width
    assert len(burst) <= (3 if row_pair else 1)
    spots = [p for p, _ in placed]
    assert len(set(spots)) == len(spots) and spots == sorted(spots)
    free = [p for p in range(width + 1, 2 * width) if set(steps[1][p - width] or ()) <= set(work)]
    assert (width in spots) == (len(free) < len(work))  # row 2j+1's first step only if needed
    assert all(steps[d][-1] is not None for d in (0, 1))
    return len(burst)


@pytest.mark.parametrize("row_pair", [False, True])
@pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
def test_step_counts_follow_the_compiled_placement(n_layers, row_pair):
    # widths on both sides of the fallbacks: where row 2j+1 has fewer steps
    # than the next pair's work, the rest runs at the next pair's start; each
    # step's MAC and node deltas are those of the items the compiled placement
    # runs there, and odd heights (without the pair) end with a row alone
    batch = 2
    for width, height in product((1, 2, n_layers + 1, 2 * n_layers + 1, 2 * n_layers + 2, 8, 11),
                                 (4,) if row_pair else (4, 5)):
        spec = ImageSpec(height, width, channels=3, n_layers=n_layers, kw=min(3, width),
                         h_kw=min(2, width), row_pair=row_pair, seed=width)
        net = build_image_network(spec)
        chunks = _check_placement(width, n_layers, row_pair)
        state = image_incremental_init(net, batch=batch)
        for r, c in product(range(height), range(width)):
            work = [_item_work(net, item, base, batch) for item, base in _items_at(spec, r, c)]
            macs0, nodes0 = state.counter.snapshot()
            image_incremental_step(net, state)
            got = (state.counter.macs - macs0, state.counter.node_evals - nodes0)
            assert got == tuple(map(sum, zip((0, 0), *work))), (width, height, r, c)
        if row_pair and width == 11 and n_layers == 3:
            assert chunks == 3  # a burst in three chunks


@pytest.mark.parametrize("row_pair", [False, True])
def test_tampered_chunk_placement_raises(row_pair, monkeypatch):
    # width 11, 3 blocks.  Without the pair, block 0's row 2j+1 runs in
    # chunks at steps 1, 4, 7 and 10 of row 2j, row 2j+1's groups from 0, 6
    # and 9 alone at steps 1, 7 and 10 and from 3 with row 2j's from 6;
    # row 2j+1's steps 1 .. 5 run blocks 0, 1 and 2's row 2j+2, then blocks
    # 1 and 2's row 2j+3.
    # With it, row 2j+1's steps 1 .. 8 run the burst's three chunks,
    # blocks 1 and 2's rows 2j+2 and 2j+3 and the next pair's first group
    # (index 1).  Each placement below breaks one rule and must raise,
    # not compute from pixels or rows that are not there yet: a vertical op
    # at once, a group at once, or a row pass that finds a row short
    spec = ImageSpec(4, 11, channels=3, n_layers=3, row_pair=row_pair, seed=3)
    net = build_image_network(spec)
    groups, steps, start, late = _schedule(11, 3, row_pair)
    lead, lag = steps[:2]
    if row_pair:
        assert [lag[c] for c in range(1, 9)] == [
            ((0, 2, 0, 4),), ((0, 2, 4, 7),), ((0, 2, 7, 11),),
            ((1, 2, 0, 11),), ((2, 2, 0, 11),), ((1, 3, 0, 11),), ((2, 3, 0, 11),), (1,)]
    else:
        assert [(c, lead[c]) for c in (1, 4, 6, 7, 10)] == [
            (1, ((0, 1, 0, 3), 5)), (4, ((0, 1, 3, 6),)), (6, (3,)),
            (7, ((0, 1, 6, 9), 6)), (10, ((0, 1, 9, 11), 7))]

    def moved(row, *pairs):
        out = list(row)
        for c, items in pairs:
            out[c] = items
        return tuple(out)

    op, group, short = "out of order", "before its vertical rows", "not all computed"
    if row_pair:
        tampered = [
            # burst chunks out of column order; a gap in the burst's columns; a
            # chunk before row 1's pixels
            (lead, moved(lag, (1, lag[2]), (2, lag[1])), op),
            (lead, moved(lag, (2, ((0, 2, 5, 7),))), op),
            (moved(lead, (1, lag[1])), moved(lag, (1, None)), op),
            # block 1's row 3 before its row 2; the next pair's group before its rows
            (lead, moved(lag, (4, lag[6]), (6, lag[4])), op),
            (lead, moved(lag, (4, lag[8]), (8, lag[4])), group),
            # block 0 never finishes its burst (nor blocks 1 and 2 their rows 3, which
            # read it): row 2's pass finds the pair's rows short
            (lead, moved(lag, (3, None), (6, None), (7, None), (8, ())), short),
        ]
    else:
        tampered = [
            # a chunk before its pixels; chunks out of order; a gap in the columns
            (moved(lead, (4, None), (3, ((0, 1, 3, 6), 2))), lag, op),
            (moved(lead, (1, ((0, 1, 3, 6), 5)), (4, ((0, 1, 0, 3),))), lag, op),
            (moved(lead, (4, ((0, 1, 4, 6),))), lag, op),
            # row 1's group before its chunk; block 1's row 3 before block 0's row 2
            (moved(lead, (6, (3, 6)), (7, ((0, 1, 6, 9),))), lag, group),
            (lead, moved(lag, (1, lag[4]), (4, lag[1])), op),
            # block 0 never finishes row 1 (row 1's last group moved to row 1's first
            # step): row 1's pass finds block 0's row short
            (moved(lead, (10, ())), moved(lag, (0, (7,))), short),
        ]
    for *bad, match in tampered:
        monkeypatch.setattr("convgen.image2d._schedule",
                            lambda w, n, p, bad=bad: (groups, (*bad, *steps[2:]), start, late))
        state = image_incremental_init(net)
        with pytest.raises(ScheduleViolationError, match=match):
            for _ in range(3 * 11):  # rows 0 and 1, and row 2's start
                image_incremental_step(net, state)


@pytest.mark.parametrize("width", [11, 4])
def test_a_burst_chunk_cannot_follow_the_group_that_overwrites_its_rows(width, monkeypatch):
    # kh = 2: the image ring has four slots, and the next pair's first group
    # writes row 2j+3 into the slot of row 2j-1, the oldest row a burst
    # chunk's odd vconv row reads.  That group reads block 0's rows 2j+2 and
    # 2j+3, which only the burst's last chunk completes, so a `_run` that
    # runs it ahead of the burst raises before it writes a pixel: at width
    # 11 it runs on row 2j+1's steps, at width 4 the next pair's work
    # spills into `late` and it would run at row 2j+2's start
    spec = ImageSpec(6, width, channels=3, n_layers=3, row_pair=True, seed=4)
    net = build_image_network(spec)
    _, _, start, late = _schedule(width, 3, True)
    after = start[-1] + 1
    assert (after in late) == (width == 4)
    real = image2d._run

    def run(network, state, items, base):  # the group first, before the burst's first chunk
        for item in items:
            if type(item) is tuple and item[:3] == (0, 2, 0):
                real(network, state, (after,), base)
            real(network, state, (item,), base)

    monkeypatch.setattr(image2d, "_run", run)
    state = image_incremental_init(net, batch=2)
    with pytest.raises(ScheduleViolationError, match="before its vertical rows"):
        for _ in range(spec.height * width):
            image_incremental_step(net, state)
    assert state.r == 1 and not state.queues[2]  # row 3 has no pixel


@pytest.mark.parametrize("h_kw", [1, 2, 3])
@pytest.mark.parametrize("channels", [1, 3, 8])
def test_folded_weights_are_the_horizontal_conv_and_link_built_once(channels, h_kw, monkeypatch):
    # each block's group node is one dot of [W_h taps | W_link | b] over
    # [h_kw input taps; its vertical row; 1]; block 0's input has one
    # channel, so its link's C inputs are C one-channel taps
    built = []
    real = image2d.ConvWeights
    monkeypatch.setattr(image2d, "ConvWeights", lambda *a: built.append(a) or real(*a))
    spec = ImageSpec(4, 5, channels=channels, n_layers=2, kw=3, h_kw=h_kw, seed=channels)
    net = build_image_network(spec)
    state = image_incremental_init(net, batch=2)
    assert not any("folded" in vars(b) for b in net.blocks)  # neither at build nor at init
    del built[:]
    image_incremental_step(net, state)  # the first group
    folded = [b.folded for b in net.blocks]
    assert len(built) == spec.n_layers
    for i, (block, f) in enumerate(zip(net.blocks, folded)):
        h, link = block.horiz, block.link
        want = np.column_stack((h.fused[:, :-1], link.kernel[:, :, 0], h.bias))
        assert f.fused.tobytes() == want.tobytes() and f.fused.shape == want.shape, i
        assert f.macs == h.macs + link.macs
        assert (f.in_channels, f.k) == ((1, h_kw + channels) if i == 0 else (channels, h_kw + 1))
    generate(net, batch=3)  # another state of the same network
    assert len(built) == spec.n_layers
    assert all(b.folded is f for b, f in zip(net.blocks, folded))
    for fork in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        assert fork == net and not any("folded" in vars(b) for b in fork.blocks)


def test_up_phases_are_the_up_layers_phases_built_once():
    # a burst chunk runs each up phase as one node of [W_j | b], the up
    # layer's `ConvWeights.phases`; they are built by the first burst, once
    # per network, and not carried by copies
    spec = ImageSpec(4, 11, channels=3, n_layers=2, row_pair=True, seed=2)
    net = build_image_network(spec)
    up = net.blocks[0].up
    image_incremental_init(net, batch=2)
    assert "phases" not in vars(up)
    generate(net, batch=2)
    phases = up.phases
    for j, w in enumerate(phases):
        want = np.column_stack((up.tap_mats[j], up.bias))
        assert w.fused.tobytes() == want.tobytes() and w.macs * 2 == up.macs
    generate(net, batch=3)
    assert up.phases is phases
    assert "phases" not in vars(copy.deepcopy(net).blocks[0].up)


def test_down_interleaved_is_the_down_node_over_the_interleaved_rows():
    # a burst chunk writes block 0's vconv rows 2j-1 and 2j side by side,
    # (C, 2m), into the down node's (2C+1, m) column, so its rows are
    # (channel, tap)-interleaved; `down_interleaved`, the down kernel as one
    # channel of 2C taps, gives the stacked down node's values over them at
    # its MACs and nodes.  It is built by the first burst, once per network,
    # and not carried by copies
    spec = ImageSpec(4, 11, channels=3, n_layers=2, row_pair=True, seed=2)
    net = build_image_network(spec)
    block, m = net.blocks[0], 176
    assert "down_interleaved" not in vars(block)
    generate(net, batch=2)
    w = block.down_interleaved
    prev, cur = np.random.default_rng(5).uniform(-1, 1, (2, 3, m)).astype(np.float32)
    column = np.ones((2 * 3 + 1, m), np.float32)
    column[:-1].reshape(3, 2 * m)[...] = np.concatenate((prev, cur), axis=1)
    stacked, interleaved = OpCounter(), OpCounter()
    want = conv1d_point(block.down, [prev, cur], stacked)
    got = conv1d_point(w, Column(column, 1), interleaved)
    assert interleaved.snapshot() == stacked.snapshot() == (3 * 3 * 2 * m, m)
    assert np.max(np.abs(got - want)) <= 1e-6
    generate(net, batch=3)
    assert block.down_interleaved is w
    assert "down_interleaved" not in vars(copy.deepcopy(net).blocks[0])


@pytest.mark.parametrize("row_pair", [False, True])
@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_fork_at_every_offset_in_a_group_continues_bit_exact(how, row_pair):
    # forks at every step of a whole row pair, rows 2 and 3 of 6, so both
    # rows are in flight and row 3's steps compute the next pair's vertical
    # rows and first group: width 8 with 3 blocks (groups from 0, 3 and 6,
    # the last to the row's end) and width 11 (from 0, 3, 6 and 9; with the
    # pair, block 0's burst in three chunks); a fork carries the pixels its
    # groups queued and the rows written ahead
    fork_of = {"deepcopy": copy.deepcopy, "pickle": lambda s: pickle.loads(pickle.dumps(s))}[how]
    for width in (8, 11):
        spec = ImageSpec(6, width, channels=3, n_layers=3, row_pair=row_pair, seed=21)
        net = build_image_network(spec)
        whole = generate(net, batch=2)
        for fork_at in range(2 * width, 4 * width):
            state = image_incremental_init(net, batch=2)
            for _ in range(fork_at):
                image_incremental_step(net, state)
            fork = fork_of(state)
            assert fork.cached_rows_values() == state.cached_rows_values()
            outs = {"state": [], "fork": []}
            for _ in range(6 * width - fork_at):
                for name, st in (("state", state), ("fork", fork)):  # interleaved
                    outs[name].append(image_incremental_step(net, st))
            for name in outs:
                assert np.array_equal(np.stack(outs[name]), whole[fork_at:]), (
                    name, width, fork_at)
            assert fork.counter.snapshot() == state.counter.snapshot()
            assert fork.cached_rows_values() == state.cached_rows_values()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_receptive_field_2d_bounds():
    spec = ImageSpec(16, 16, channels=2, n_layers=3, seed=0)
    rows, cols = receptive_field_2d(spec)
    assert 1 <= rows <= 16 and 1 <= cols <= 16
    assert rows >= spec.kh + 1  # at least one vertical hop
    small = ImageSpec(4, 4, channels=2, n_layers=5, kh=2, kw=3, seed=0)
    rows, cols = receptive_field_2d(small)
    assert rows <= 4 and cols <= 4  # clipped to the image


@pytest.mark.parametrize(
    "kh,kw,h_kw,n_layers,row_pair",
    [
        (2, 3, 2, 1, False),
        (2, 3, 2, 3, False),
        (3, 5, 3, 2, False),
        (1, 1, 3, 3, False),
        (2, 3, 2, 3, True),
        (3, 2, 1, 2, True),
    ],
)
def test_receptive_field_2d_matches_perturbation(kh, kw, h_kw, n_layers, row_pair):
    # bounding box of the pixels whose perturbation changes the last pixel of
    # either of the last two rows (both row parities of the strided pair)
    H = W = 12
    spec = ImageSpec(H, W, channels=3, n_layers=n_layers, kh=kh, kw=kw, h_kw=h_kw,
                     row_pair=row_pair, seed=1)
    net = build_image_network(spec)
    x = np.random.default_rng(0).uniform(-1, 1, H * W).astype(np.float32)
    forward = lambda v: forward_image(net, v.reshape(1, H, W, 1)).ravel()
    rows = cols = 0
    for r_out in (H - 2, H - 1):
        for p in perturbation_influence(forward, x, r_out * W + W - 1):
            r, c = divmod(p, W)
            rows, cols = max(rows, r_out - r + 1), max(cols, W - c)
    assert receptive_field_2d(spec) == (rows, cols)


@pytest.mark.parametrize("kh", [1, 2, 3])
@pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
def test_row_pair_leaves_the_second_row_independent_of_the_first(n_layers, kh):
    # the oracle, not the engine: with the pair, block 0's vertical rows 2j
    # and 2j+1 are the up phases of down row j, which reads image rows up to
    # 2j-1, so perturbing row 2j leaves forward_image's predictions for row
    # 2j+1 bit-identical; without the pair they change.  The cached engine
    # runs row 2j+1's groups with row 2j's on this alone
    H, W = 8, 6
    x = np.random.default_rng(kh).uniform(-1, 1, (1, H, W, 1)).astype(np.float32)
    for row_pair in (False, True):
        net = build_image_network(ImageSpec(H, W, channels=3, n_layers=n_layers, kh=kh,
                                            row_pair=row_pair, seed=n_layers))
        base = forward_image(net, x)
        for j in range(H // 2):
            pert = x.copy()
            pert[0, 2 * j] += 0.5
            same = np.array_equal(forward_image(net, pert)[0, 2 * j + 1], base[0, 2 * j + 1])
            assert same == row_pair, (row_pair, j)


def test_write_pgm(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(-3, 3, (5, 7)).astype(np.float32)
    path = tmp_path / "sample.pgm"
    write_pgm(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P5\n7 5\n255\n")
    pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8)
    assert pixels.shape == (35,)
    assert pixels.min() == 0 and pixels.max() == 255  # min-max normalised
    flat = write_pgm(tmp_path / "flat.pgm", np.ones((2, 2), np.float32))
    data = (tmp_path / "flat.pgm").read_bytes()
    assert data.endswith(bytes(4))  # constant image maps to zeros


@pytest.mark.parametrize("image", [
    np.zeros((0, 4)), np.zeros((3, 0)), [[0.0, np.nan]], [[np.inf, 1.0]], [[-np.inf]],
    [["a", "b"]], [[None]], [[1.0], [1.0, 2.0]], np.zeros((2, 2, 2)),
], ids=["no-rows", "no-columns", "nan", "inf", "-inf", "strings", "none", "ragged", "3d"])
def test_write_pgm_rejects_bad_images_before_opening_the_file(tmp_path, image):
    path = tmp_path / "bad.pgm"
    with pytest.raises(InvalidParameterError):
        write_pgm(path, image)
    assert not path.exists()


@pytest.mark.parametrize("image", [np.array([[1 + 2j, 3j]]), np.ones((2, 3), np.complex64)],
                         ids=["complex128", "complex64"])
def test_write_pgm_rejects_complex_images_without_a_warning(tmp_path, image):
    path = tmp_path / "complex.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would fail here
        with pytest.raises(InvalidParameterError, match="complex"):
            write_pgm(path, image)
    assert not path.exists()
