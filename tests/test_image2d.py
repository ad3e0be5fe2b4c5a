"""2D model tests: naive/cached equivalence, row-at-a-time vertical stream,
raster causality, batch lockstep, state forks, memory bounds, and the PGM
dump."""

import copy

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
from convgen.cache import RowCache
from convgen.image2d import (
    _pixel_step,
    _vconv_row,
    image_incremental_init,
    image_incremental_step,
    image_naive_init,
    image_naive_step,
    vertical_row_pass,
)
from convgen.tensor import masked_conv2d
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
    recorded = []
    for r in range(spec.height):
        rows = vertical_row_pass(net, state, r)
        recorded.append([row.copy() for row in rows])
        for _ in range(spec.width):
            _pixel_step(net, state)
    final = state.image  # (1, H, W, 1)
    v = final
    for li, block in enumerate(net.blocks):
        v = np.tanh(masked_conv2d(block.vert, v[..., 0] if v.ndim == 4 else v, "vertical"))
        for r in range(spec.height):
            got = recorded[r][li][:, :, 0]
            assert np.max(np.abs(got - v[:, r, :])) <= EQUIV_TOL


def _vconv_row_reference(w, cache):
    """The vertical conv row rebuilt from rows_stack() with explicit zero-left shifts."""
    stack = cache.rows_stack()  # (in, kh, W, B)
    in_ch, kh, W, B = stack.shape
    kw = w.kernel.shape[3]
    column = np.zeros((kh, kw, in_ch, W, B), np.float32)
    for i in range(kh):
        for j in range(kw):
            shift = kw - 1 - j
            column[i, j, :, shift:] = stack[:, i, : W - shift]
    column = np.concatenate([column.reshape(-1, W * B), np.ones((1, W * B), np.float32)])
    return np.dot(w.fused, column).reshape(w.out_channels, W, B)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("kw", [1, 2, 3, 5])
@pytest.mark.parametrize("kh", [1, 2, 3])
def test_vconv_row_matches_shifted_rows_reference(kh, kw, batch):
    spec = ImageSpec(3, 6, channels=3, n_layers=2, kh=kh, kw=kw, seed=kh * 10 + kw)
    w = build_image_network(spec).blocks[1].vert
    cache = RowCache(kh, spec.width, spec.channels, batch, kw)
    rng = np.random.default_rng(batch)
    for pushes in range(2 * kh + 2):  # every ring position, wrapped twice
        if pushes:
            cache.push_row(rng.standard_normal((spec.channels, spec.width, batch)).astype(np.float32))
        counter = OpCounter()
        got = _vconv_row(w, cache, counter)
        assert np.array_equal(got, _vconv_row_reference(w, cache))
        assert counter.node_evals == spec.width * batch
        assert counter.macs == w.macs * spec.width * batch


def test_vertical_row_pass_out_of_order_rejected():
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
    assert all(p.shape == (1, 2) for p in pixels)
    got = np.concatenate(pixels)
    assert np.array_equal(got, generate(net, engine=engine, batch=2))
    assert np.array_equal(got.reshape(spec.height, spec.width, 2), state.image[0])
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
    # row pair adds one down row and two up rows per two image rows
    per_pixel = 8.5 if row_pair else 7
    for H in (6, 12, 18):
        spec = ImageSpec(H, 6, channels=4, n_layers=3, row_pair=row_pair, seed=1)
        net = build_image_network(spec)
        state = image_incremental_init(net, batch=2)
        assert state.counter.node_evals == 0  # row work runs in the row passes
        for _ in range(H * 6):
            image_incremental_step(net, state)
        assert state.counter.node_evals == 2 * H * 6 * per_pixel
        if row_pair:
            assert not state.pair.pending  # no vertical row beyond the image


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


@pytest.mark.parametrize("row_pair", [False, True])
def test_forked_state_continues_bit_exact(row_pair):
    # fork mid-row 2: with the pair, its burst has left one up row pending
    spec = ImageSpec(6, 6, channels=3, n_layers=2, row_pair=row_pair, seed=12)
    net = build_image_network(spec)
    whole = generate(net, batch=2)
    state = image_incremental_init(net, batch=2)
    fork_at = 2 * 6 + 3
    for _ in range(fork_at):
        image_incremental_step(net, state)
    fork = copy.deepcopy(state)
    assert fork.counter is not state.counter
    assert not np.shares_memory(fork.image, state.image)
    outs = {"state": [], "fork": []}
    for _ in range(36 - fork_at):
        for name, st in (("state", state), ("fork", fork)):  # interleaved
            outs[name].append(image_incremental_step(net, st))
    for name in outs:
        assert np.array_equal(np.concatenate(outs[name]), whole[fork_at:])
    assert fork.counter.snapshot() == state.counter.snapshot()


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
