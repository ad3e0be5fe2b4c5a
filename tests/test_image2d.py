"""2D model tests: naive/cached equivalence, row-at-a-time vertical stream,
raster causality, batch lockstep, memory bounds, and the PGM dump."""

import numpy as np
import pytest

from convgen import (
    ImageSpec,
    InvalidParameterError,
    OpCounter,
    ScheduleViolationError,
    build_image_network,
    forward_image,
    image_incremental_generate,
    image_naive_generate,
    receptive_field_2d,
    write_pgm,
)
from convgen.image2d import (
    _pixel_step,
    image_incremental_init,
    image_incremental_step,
    image_naive_init,
    image_naive_step,
    vertical_row_pass,
)
from convgen.tensor import masked_conv2d

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
    ImageSpec(8, 8)  # defaults are valid


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_layers", [3, 4, 5])
def test_equivalence_8x8(seed, n_layers):
    spec = ImageSpec(8, 8, channels=4, n_layers=n_layers, seed=seed)
    net = build_image_network(spec)
    a = image_naive_generate(net)
    b = image_incremental_generate(net)
    assert np.isfinite(a).all()
    assert np.max(np.abs(a - b)) <= EQUIV_TOL


@pytest.mark.parametrize("seed", range(3))
def test_equivalence_row_pair(seed):
    spec = ImageSpec(8, 8, channels=4, n_layers=3, row_pair=True, seed=seed)
    net = build_image_network(spec)
    a = image_naive_generate(net)
    b = image_incremental_generate(net)
    assert np.max(np.abs(a - b)) <= EQUIV_TOL


def test_equivalence_wide_kernels():
    spec = ImageSpec(10, 10, channels=3, n_layers=3, kh=3, kw=5, h_kw=3, seed=5)
    net = build_image_network(spec)
    assert np.max(np.abs(image_naive_generate(net) - image_incremental_generate(net))) <= EQUIV_TOL


def test_one_pixel_image_is_pure_bias_path():
    spec = ImageSpec(1, 1, channels=3, n_layers=2, kh=1, kw=1, h_kw=1, seed=4)
    net = build_image_network(spec)
    # hand-rolled bias path: every conv input is zero padding
    v = np.zeros(1, np.float32)
    h = np.zeros(1, np.float32)
    for block in net.blocks:
        v = np.tanh(block.vert.bias + block.vert.tap_mats[0] @ v * 0)
        # vertical tap reads row -1 => zero; horizontal tap reads col -1 => zero
        h = np.tanh(block.horiz.bias + block.link @ v)
    want = net.proj.bias + net.proj.tap_mats[0] @ h
    got = image_naive_generate(net)
    assert got.shape == (1, 1, 1)
    assert np.allclose(got[0, 0, 0], want[0], atol=1e-6)
    assert np.allclose(image_incremental_generate(net)[0, 0, 0], want[0], atol=1e-6)


def test_naive_pass_count_is_h_times_w():
    spec = ImageSpec(5, 6, channels=2, n_layers=2, seed=1)
    net = build_image_network(spec)
    counter = OpCounter()
    image_naive_generate(net, counter=counter)
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
    init, step, generate = {
        "naive": (image_naive_init, image_naive_step, image_naive_generate),
        "cached": (image_incremental_init, image_incremental_step, image_incremental_generate),
    }[engine]
    state = init(net, batch=2)
    pixels = [step(net, state) for _ in range(spec.height * spec.width)]
    assert all(p.shape == (1, 2) for p in pixels)
    got = np.stack([p[0] for p in pixels], axis=1).reshape(2, spec.height, spec.width)
    assert np.array_equal(got, generate(net, batch=2))
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


def test_per_pixel_nodes_independent_of_height():
    per_pixel = {}
    for H in (6, 12, 18):
        spec = ImageSpec(H, 6, channels=4, n_layers=3, seed=1)
        net = build_image_network(spec)
        counter = OpCounter()
        image_incremental_generate(net, counter=counter)
        per_pixel[H] = counter.node_evals / (H * 6)
    assert len(set(per_pixel.values())) == 1
    # 3 horizontal + 3 vertical (one row pass per row) + 1 head per pixel
    assert per_pixel[6] == 7.0


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
    single = image_incremental_generate(net)
    batched = image_incremental_generate(net, batch=4)
    assert batched.shape == (4, 8, 8)
    # elements are bitwise identical to each other (pure lockstep) ...
    for i in range(1, 4):
        assert np.array_equal(batched[i], batched[0])
    # ... and match the solo run up to BLAS-shape float noise
    assert np.max(np.abs(batched[0] - single)) <= 1e-6
    naive_batched = image_naive_generate(net, batch=2)
    assert np.max(np.abs(naive_batched[0] - image_naive_generate(net))) <= 1e-6


def test_batch_validation():
    spec = ImageSpec(4, 4, channels=2, n_layers=2, seed=0)
    net = build_image_network(spec)
    with pytest.raises(InvalidParameterError):
        image_naive_generate(net, batch=0)
    with pytest.raises(InvalidParameterError):
        image_incremental_generate(net, batch=-1)


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
