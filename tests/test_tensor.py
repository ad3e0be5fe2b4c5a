"""Kernel-level tests: every conv primitive against scalar-loop oracles,
counter exactness, and the raster/temporal causality masks."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from convgen import (
    ConvWeights,
    EmptyInputError,
    InsufficientContextError,
    InvalidParameterError,
    OpCounter,
    ShapeError,
)
from convgen import dilated, strided, tensor
from convgen.dilated import NetworkSpec, build_network, forward_full
from convgen.strided import build_strided_network
from convgen.tensor import (
    Column,
    _stacked_point,
    as_tensor,
    conv1d_full,
    conv1d_point,
    masked_conv2d,
    strided_conv1d,
    strided_transposed_conv1d,
)
from oracles import (
    point_causal_conv,
    point_transposed_conv1d,
    scalar_conv1d_full,
    scalar_conv1d_point,
    scalar_masked_conv2d,
    scalar_strided_conv1d,
    scalar_transposed_conv1d,
    versions,
)

ORACLE_TOL = 1e-6


def rand_weights(rng, out_ch, in_ch, taps):
    kernel = rng.uniform(-1, 1, size=(out_ch, in_ch) + taps).astype(np.float32)
    bias = rng.uniform(-1, 1, size=(out_ch,)).astype(np.float32)
    return ConvWeights(kernel, bias)


# ---------------------------------------------------------------------------
# as_tensor / ConvWeights contracts
# ---------------------------------------------------------------------------


def test_as_tensor_pins_dtype_layout():
    t = as_tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float32
    assert t.flags.c_contiguous
    assert t.shape == (2, 2)


def test_conv_weights_validation():
    with pytest.raises(ShapeError):
        ConvWeights(np.zeros((2, 2), np.float32), np.zeros(2, np.float32))
    with pytest.raises(ShapeError):
        ConvWeights(np.zeros((2, 2, 2), np.float32), np.zeros(3, np.float32))
    with pytest.raises(InvalidParameterError):
        ConvWeights(np.full((1, 1, 2), np.nan, np.float32), np.zeros(1, np.float32))


# ---------------------------------------------------------------------------
# conv1d_point
# ---------------------------------------------------------------------------


def test_point_identity_tap():
    # kernel (0, 1) on one channel passes the newest tap through
    w = ConvWeights(np.array([[[0.0, 1.0]]], np.float32), np.zeros(1, np.float32))
    a, b = np.array([5.0], np.float32), np.array([-2.5], np.float32)
    assert conv1d_point(w, [a, b])[0] == np.float32(-2.5)


def test_point_sum_tap():
    w = ConvWeights(np.array([[[1.0, 1.0]]], np.float32), np.zeros(1, np.float32))
    out = conv1d_point(w, [np.array([3.0], np.float32), np.array([4.0], np.float32)])
    assert out[0] == np.float32(7.0)


@pytest.mark.parametrize("case", range(100))
def test_point_matches_scalar_oracle(case):
    rng = np.random.default_rng(1000 + case)
    out_ch, in_ch, k = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
    w = rand_weights(rng, out_ch, in_ch, (int(k),))
    taps = [rng.uniform(-2, 2, in_ch).astype(np.float32) for _ in range(k)]
    got = conv1d_point(w, taps)
    want = scalar_conv1d_point(w.kernel, w.bias, taps)
    assert np.max(np.abs(got - want)) <= ORACLE_TOL


def test_point_batched_matches_per_element():
    rng = np.random.default_rng(7)
    w = rand_weights(rng, 3, 4, (2,))
    taps = [rng.uniform(-1, 1, (4, 5)).astype(np.float32) for _ in range(2)]
    batched = conv1d_point(w, taps)
    for j in range(5):
        single = conv1d_point(w, [t[:, j] for t in taps])
        assert np.max(np.abs(batched[:, j] - single)) <= ORACLE_TOL


def test_point_shape_errors():
    rng = np.random.default_rng(0)
    w = rand_weights(rng, 2, 3, (2,))
    with pytest.raises(ShapeError):
        conv1d_point(w, [np.zeros(3, np.float32)])  # missing a tap
    with pytest.raises(ShapeError):
        conv1d_point(w, [np.zeros(2, np.float32), np.zeros(3, np.float32)])


@pytest.mark.parametrize("k, batch", [(1, 1), (2, 5), (3, 4)])
def test_point_batched_columns_and_counts(k, batch):
    rng = np.random.default_rng(10 + k)
    w = rand_weights(rng, 4, 3, (k,))
    taps = [rng.uniform(-1, 1, (3, batch)).astype(np.float32) for _ in range(k)]
    counter = OpCounter()
    batched = conv1d_point(w, taps, counter)
    assert batched.shape == (4, batch) and batched.dtype == np.float32
    assert counter.snapshot() == (4 * 3 * k * batch, batch)
    single = OpCounter()
    for j in range(batch):
        col = conv1d_point(w, [t[:, j] for t in taps], single)
        assert np.max(np.abs(batched[:, j] - col)) <= ORACLE_TOL
    assert single.snapshot() == counter.snapshot()


@pytest.mark.parametrize("batch", [None, 4])
def test_point_contract_errors(batch):
    rng = np.random.default_rng(2)
    w = rand_weights(rng, 2, 3, (2,))

    def tap(channels):
        return np.zeros((channels,) if batch is None else (channels, batch), np.float32)

    three_d = np.zeros((3, batch or 1, 1), np.float32)
    for taps in (
        [tap(3)],  # one tap short
        [tap(3)] * 3,  # one tap too many
        [tap(3), tap(2)],  # wrong channel count
        [tap(2), tap(3)],
        [tap(3), three_d],
        [three_d, tap(3)],
    ):
        with pytest.raises(ShapeError):
            conv1d_point(w, taps)
    # taps that disagree in batch shape are a ShapeError, not a numpy error
    other = np.zeros((3, 2), np.float32) if batch is None else np.zeros(3, np.float32)
    with pytest.raises(ShapeError):
        conv1d_point(w, [tap(3), other])
    if batch is not None:
        with pytest.raises(ShapeError):
            conv1d_point(w, [tap(3), np.zeros((3, batch + 1), np.float32)])


@pytest.mark.parametrize("batch", [None, 1, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_matches_tuple_path(k, batch):
    rng = np.random.default_rng(20 + k)
    w = rand_weights(rng, 4, 3, (k,))
    cols = () if batch is None else (batch,)
    buf = np.ones((3 * k + 1,) + cols, np.float32)
    col = Column(buf, 3)
    assert len(col) == k and all(np.shares_memory(tap, buf) for tap in col)
    taps = [rng.uniform(-1, 1, (3,) + cols).astype(np.float32) for _ in range(k)]
    for view, tap in zip(col, taps):
        view[...] = tap  # filling a tap view fills the column
    assert np.array_equal(buf[:-1], np.concatenate(taps))
    want, got = OpCounter(), OpCounter()
    expected = conv1d_point(w, taps, want)
    assert np.array_equal(conv1d_point(w, col, got), expected)  # bit for bit
    assert got.snapshot() == want.snapshot()
    out = np.zeros_like(expected)
    assert conv1d_point(w, col, None, out) is out
    assert np.array_equal(out, expected)
    tuple_out = np.zeros_like(expected)
    assert conv1d_point(w, taps, None, tuple_out) is tuple_out
    assert np.array_equal(tuple_out, expected)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("in_ch", [1, 3, 32])
@pytest.mark.parametrize("out_ch", [1, 4])
def test_phases_are_one_tap_weights_over_the_phase_blocks(k, in_ch, out_ch):
    # the cached strided step runs up node (j, r) as conv1d_point(phases[r],
    # Column of [x_j; 1]) and the whole-sequence up conv as the same phase
    # over the tap x_j: one dot with [W_r | b], the same bits either way
    rng = np.random.default_rng(100 * k + 10 * in_ch + out_ch)
    w = rand_weights(rng, out_ch, in_ch, (k,))
    assert "phases" not in vars(w)  # built on first use
    phases = w.phases
    assert len(phases) == k and w.phases is phases
    blocks = phases[0].fused.base  # the k blocks [W_r | b], one array
    assert blocks.shape == (k, out_ch, in_ch + 1) and blocks.flags.c_contiguous
    assert not blocks.flags.writeable
    x = rng.uniform(-1, 1, (in_ch, 3)).astype(np.float32)
    counter = OpCounter()
    whole = strided_transposed_conv1d(w, x, k, counter)
    assert counter.snapshot() == (3 * k * out_ch * in_ch, 3 * k)  # one node per output
    for r, phase in enumerate(phases):
        assert phase.fused.base is blocks and np.array_equal(phase.fused, blocks[r])
        assert not phase.fused.flags.writeable and not phase.kernel.flags.writeable
        assert (phase.k, phase.fit, phase.macs) == (1, (1, in_ch + 1), out_ch * in_ch)
        assert phase == ConvWeights(w.kernel[:, :, r : r + 1], w.bias)
        for j in range(3):
            buf = np.ones(in_ch + 1, np.float32)
            buf[:-1] = x[:, j]
            got = conv1d_point(phase, Column(buf, in_ch))
            assert got.tobytes() == whole[:, k * j + r].tobytes()
            assert np.allclose(got, w.kernel[:, :, r] @ x[:, j] + w.bias, atol=1e-5)


def test_column_contract_errors():
    rng = np.random.default_rng(3)
    w = rand_weights(rng, 2, 3, (2,))
    for buf, in_ch in (
        (np.ones(6, np.float32), 3),  # not k*3 + 1 rows
        (np.ones(3, np.float32), 3),  # no tap at all
        (np.ones(7, np.float64), 3),  # not float32
        (np.ones((7, 4), np.float32)[:, ::2], 3),  # not contiguous
        (np.ones((7, 2, 2), np.float32), 3),
        (np.ones(7, np.float32), 0),
    ):
        with pytest.raises(ShapeError):
            Column(buf, in_ch)
    with pytest.raises(InvalidParameterError):
        Column(np.zeros(7, np.float32), 3)  # the last row must be ones
    for buf, in_ch in (
        (np.ones(4, np.float32), 3),  # one tap short
        (np.ones(10, np.float32), 3),  # one tap too many
        (np.ones(5, np.float32), 2),  # wrong channel count
        (np.ones(7, np.float32), 1),  # right rows, wrong taps
    ):
        with pytest.raises(ShapeError):
            conv1d_point(w, Column(buf, in_ch))
    col = Column(np.ones(7, np.float32), 3)
    for out in (np.zeros(3, np.float32), np.zeros(2, np.float64), np.zeros((2, 1), np.float32)):
        with pytest.raises(ShapeError):
            conv1d_point(w, col, None, out)


def test_fused_matrix_layout():
    rng = np.random.default_rng(3)
    w = rand_weights(rng, 2, 3, (2, 2))  # 2D kernel: taps in flattened order
    assert w.fused.shape == (2, 4 * 3 + 1) and not w.fused.flags.writeable
    flat = w.kernel.reshape(2, 3, 4)
    for j in range(4):
        assert np.array_equal(w.fused[:, 3 * j : 3 * j + 3], flat[:, :, j])
        assert np.array_equal(w.tap_mats[j], flat[:, :, j])
    assert np.array_equal(w.fused[:, -1], w.bias)
    assert (w.k, w.macs, w.in_channels, w.out_channels) == (4, 2 * 3 * 4, 3, 2)


def test_weights_are_immutable_copies():
    # `fused` and `kernel` feed different kernels, so neither may drift
    kernel, bias = np.ones((1, 1, 1, 2), np.float32), np.zeros(1, np.float32)
    w = ConvWeights(kernel, bias)
    kernel[...] = 5.0  # the caller's array is not the weights' array
    bias[...] = 1.0
    taps = [np.ones(1, np.float32)] * 2
    assert conv1d_point(w, taps)[0] == 2.0
    assert np.array_equal(masked_conv2d(w, np.ones((1, 1, 3), np.float32), "horizontal")[0, 0],
                          [0.0, 1.0, 2.0])
    for arr in (w.kernel, w.bias, w.fused, *w.tap_mats):
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_weights_copies_rebuild_and_compare_by_value():
    # a copy or pickle goes through the constructor: read-only, tap_mats view its own fused
    w = rand_weights(np.random.default_rng(4), 3, 2, (3,))
    for other in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert other == w and other is not w
        assert not np.shares_memory(other.fused, w.fused)
        for arr in (other.kernel, other.bias, other.fused, *other.tap_mats):
            assert not arr.flags.writeable
        assert all(np.shares_memory(m, other.fused) for m in other.tap_mats)
    assert ConvWeights(w.kernel.copy(), w.bias.copy()) == w
    assert ConvWeights(w.kernel, w.bias + 1) != w
    assert ConvWeights(w.kernel[:, :, :2], w.bias) != w  # other shape: unequal, no error
    assert w != w.kernel and w != None  # noqa: E711


# ---------------------------------------------------------------------------
# conv1d_full
# ---------------------------------------------------------------------------


def test_full_identity_passthrough():
    w = ConvWeights(np.array([[[0.0, 1.0]]], np.float32), np.zeros(1, np.float32))
    x = np.arange(6, dtype=np.float32)[None, :]
    out = conv1d_full(w, x, dilation=3)
    assert np.array_equal(out, x)


def test_full_dilation2_frozen():
    # hand-evaluated: out[t] = x[t-2] + x[t], zeros on the left
    w = ConvWeights(np.array([[[1.0, 1.0]]], np.float32), np.zeros(1, np.float32))
    x = np.array([[1.0, 2.0, 3.0, 4.0]], np.float32)
    out = conv1d_full(w, x, dilation=2)
    assert np.array_equal(out[0], np.array([1.0, 2.0, 4.0, 6.0], np.float32))


@pytest.mark.parametrize("case", range(100))
def test_full_matches_scalar_oracle(case):
    rng = np.random.default_rng(2000 + case)
    in_ch, out_ch = rng.integers(1, 4), rng.integers(1, 4)
    d, T = int(rng.integers(1, 4)), int(rng.integers(1, 12))
    w = rand_weights(rng, out_ch, in_ch, (2,))
    x = rng.uniform(-2, 2, (in_ch, T)).astype(np.float32)
    got = conv1d_full(w, x, dilation=d)
    want = scalar_conv1d_full(w.kernel, w.bias, x, d)
    assert np.max(np.abs(got - want)) <= ORACLE_TOL


def test_full_valid_mode_and_errors():
    rng = np.random.default_rng(1)
    w = rand_weights(rng, 1, 1, (2,))
    x = rng.uniform(-1, 1, (1, 8)).astype(np.float32)
    with pytest.raises(EmptyInputError):
        conv1d_full(w, np.zeros((1, 0), np.float32), dilation=1)
    with pytest.raises(InvalidParameterError):
        conv1d_full(w, x, dilation=0)
    for bad in (2.0, "2", None, True, np.float32(2), 2**64):
        with pytest.raises(InvalidParameterError):
            conv1d_full(w, x, dilation=bad)
    assert np.array_equal(conv1d_full(w, x, dilation=np.int64(2)), conv1d_full(w, x, dilation=2))


@pytest.mark.parametrize("dilation", [2**62, 2**64 - 1])
def test_full_dilation_beyond_the_sequence_reads_only_zero_old_taps(dilation):
    # every old tap is before 0; k = 3 puts the farthest offset past int64
    rng = np.random.default_rng(13)
    w = rand_weights(rng, 2, 3, (3,))
    x = rng.uniform(-1, 1, (3, 5)).astype(np.float32)
    tracemalloc.start()
    try:
        got = conv1d_full(w, x, dilation=dilation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert got.tobytes() == conv1d_full(w, x, dilation=5).tobytes()  # T = 5: no old tap in range
    assert got.tobytes() == point_causal_conv(w, x, 1, dilation).tobytes()


def test_stacked_dilations_receptive_field():
    # dilations (1, 2, 4): output t reads exactly inputs t-7..t
    rng = np.random.default_rng(5)
    ws = [rand_weights(rng, 1, 1, (2,)) for _ in range(3)]

    def forward(x):
        h = x[None, :].astype(np.float32)
        for w, d in zip(ws, (1, 2, 4)):
            h = conv1d_full(w, h, dilation=d)
        return h[0]

    x = rng.uniform(-1, 1, 16).astype(np.float32)
    base = forward(x)
    t = 15
    for i in range(16):
        xp = x.copy()
        xp[i] += 1.0
        changed = forward(xp)[t] != base[t]
        assert changed == (t - 7 <= i <= t), f"input {i} influence wrong"


# ---------------------------------------------------------------------------
# strided / transposed
# ---------------------------------------------------------------------------


def test_strided_stride1_reduces_to_full():
    rng = np.random.default_rng(3)
    w = rand_weights(rng, 2, 2, (2,))
    x = rng.uniform(-1, 1, (2, 7)).astype(np.float32)
    assert np.array_equal(strided_conv1d(w, x, 1), conv1d_full(w, x, dilation=1))


def test_strided_output_length_frozen():
    rng = np.random.default_rng(4)
    w = rand_weights(rng, 1, 1, (2,))
    x = rng.uniform(-1, 1, (1, 4)).astype(np.float32)
    assert strided_conv1d(w, x, 2).shape == (1, 2)


@pytest.mark.parametrize("case", range(100))
def test_strided_matches_scalar_oracle(case):
    rng = np.random.default_rng(3000 + case)
    in_ch, out_ch = rng.integers(1, 4), rng.integers(1, 4)
    s, T = int(rng.integers(1, 4)), int(rng.integers(1, 12))
    w = rand_weights(rng, out_ch, in_ch, (2,))
    x = rng.uniform(-2, 2, (in_ch, T)).astype(np.float32)
    got = strided_conv1d(w, x, s)
    want = scalar_strided_conv1d(w.kernel, w.bias, x, s)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= ORACLE_TOL


@pytest.mark.parametrize("case", range(100))
def test_transposed_matches_scalar_oracle(case):
    rng = np.random.default_rng(4000 + case)
    in_ch, out_ch = rng.integers(1, 4), rng.integers(1, 4)
    s, T = int(rng.integers(1, 4)), int(rng.integers(1, 10))
    w = rand_weights(rng, out_ch, in_ch, (int(s),))
    x = rng.uniform(-2, 2, (in_ch, T)).astype(np.float32)
    got = strided_transposed_conv1d(w, x, s)
    want = scalar_transposed_conv1d(w.kernel, w.bias, x, s)
    assert got.shape == (out_ch, s * T)
    assert np.max(np.abs(got - want)) <= ORACLE_TOL


def test_transposed_then_strided_round_trip():
    # identity-like kernels: up copies x to both phases, down picks the newest tap
    up = ConvWeights(np.array([[[1.0, 1.0]]], np.float32), np.zeros(1, np.float32))
    down = ConvWeights(np.array([[[0.0, 1.0]]], np.float32), np.zeros(1, np.float32))
    x = np.array([[1.0, -2.0, 3.0, 0.5]], np.float32)
    wide = strided_transposed_conv1d(up, x, 2)
    assert wide.shape == (1, 8)
    back = strided_conv1d(down, wide, 2)
    assert back.shape == x.shape
    assert np.array_equal(back, x)


def test_stride_errors():
    rng = np.random.default_rng(6)
    w = rand_weights(rng, 1, 1, (2,))
    x = np.ones((1, 4), np.float32)
    with pytest.raises(InvalidParameterError):
        strided_conv1d(w, x, 0)
    with pytest.raises(InvalidParameterError):
        strided_transposed_conv1d(w, x, 3)  # kernel 2 != stride 3
    for bad in (0, 2.0, "2", None, True, 2**64):
        for conv in (strided_conv1d, strided_transposed_conv1d):
            with pytest.raises(InvalidParameterError):
                conv(w, x, bad)
    assert np.array_equal(strided_transposed_conv1d(w, x, np.int8(2)),
                          strided_transposed_conv1d(w, x, 2))


# ---------------------------------------------------------------------------
# the stacked kernel behind every whole-sequence pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("in_ch", [1, 2, 8, 32])
@pytest.mark.parametrize("out_ch", [1, 2, 8, 32])
def test_stacked_point_is_per_column_dot_bit_for_bit(out_ch, in_ch, k):
    # a property of the BLAS build (one gemv per column), not a numpy promise
    rng = np.random.default_rng(100 * out_ch + 10 * in_ch + k)
    w = rand_weights(rng, out_ch, in_ch, (k,))
    column = Column(np.ones(k * in_ch + 1, np.float32), in_ch)
    for n in (1, 2, 3, 17, 64, 1000, 4096):
        cols = np.ones((n, k * in_ch + 1, 1), np.float32)
        cols[:, :-1, 0] = rng.uniform(-2, 2, (n, k * in_ch))
        got_counter, want_counter = OpCounter(), OpCounter()
        got = _stacked_point(w, cols, got_counter)
        want = []
        for col in cols[:, :, 0]:
            column.buf[:] = col
            want.append(conv1d_point(w, column, want_counter))  # the cached engines' call
        want = np.stack(want)
        assert got.shape == (n, out_ch) and got.dtype == np.float32
        mismatches = int(np.sum(got.view(np.uint32) != want.view(np.uint32)))
        assert mismatches == 0, (
            f"{mismatches} of {got.size} values of np.matmul over (n={n}, K, 1) columns differ "
            f"from per-column fused.dot at out={out_ch}, in={in_ch}, k={k} on {versions()}: "
            "this BLAS build does not run one gemv per column")
        assert got_counter.snapshot() == want_counter.snapshot() == (w.macs * n, n)


def _same(got, want, got_counter, want_counter):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got_counter.snapshot() == want_counter.snapshot()


@pytest.mark.parametrize("channels", [1, 3, 8])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_causal_passes_equal_the_per_position_reference(k, channels):
    rng = np.random.default_rng(10 * k + channels)
    w = rand_weights(rng, 2, channels, (k,))
    for dilation in range(1, 10):
        for T in range(1, (k - 1) * dilation + 4):  # past the receptive field
            x = rng.uniform(-2, 2, (channels, T)).astype(np.float32)
            got_c, want_c = OpCounter(), OpCounter()
            _same(conv1d_full(w, x, dilation, got_c), point_causal_conv(w, x, 1, dilation, want_c),
                  got_c, want_c)
    for stride in range(1, 5):
        for T in range(1, k + 2 * stride + 2):
            x = rng.uniform(-2, 2, (channels, T)).astype(np.float32)
            got_c, want_c = OpCounter(), OpCounter()
            _same(strided_conv1d(w, x, stride, got_c), point_causal_conv(w, x, stride, 1, want_c),
                  got_c, want_c)


@pytest.mark.parametrize("channels", [1, 3, 8])
@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_transposed_pass_equals_the_per_position_reference(stride, channels):
    rng = np.random.default_rng(10 * stride + channels)
    w = rand_weights(rng, 3, channels, (stride,))
    for T in range(1, 8):
        x = rng.uniform(-2, 2, (channels, T)).astype(np.float32)
        got_c, want_c = OpCounter(), OpCounter()
        _same(strided_transposed_conv1d(w, x, stride, got_c),
              point_transposed_conv1d(w, x, stride, want_c), got_c, want_c)


WHOLE_SEQUENCE_PASSES = {  # name -> (pass over x, its weights' taps)
    "conv1d_full": (lambda w, x: conv1d_full(w, x, 2), 2),
    "strided_conv1d": (lambda w, x: strided_conv1d(w, x, 2), 3),
    "strided_transposed_conv1d": (lambda w, x: strided_transposed_conv1d(w, x, 2), 2),
}


@pytest.mark.parametrize("name", WHOLE_SEQUENCE_PASSES)
def test_whole_sequence_passes_compute_in_float32(name):
    # a float64 or int64 input gives what its float32 cast gives, byte for byte
    run, k = WHOLE_SEQUENCE_PASSES[name]
    w = rand_weights(np.random.default_rng(15), 3, 2, (k,))
    x = np.random.default_rng(16).uniform(-40, 40, (2, 9))
    for given in (x, x.astype(np.int64), x.astype(np.float32).tolist()):
        got, want = run(w, given), run(w, np.asarray(given).astype(np.float32))
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", WHOLE_SEQUENCE_PASSES)
@pytest.mark.parametrize(
    "x", [np.ones((2, 4), bool), np.ones((2, 4), complex), np.full((2, 4), "1.0"),
          np.full((2, 4), None), [[0.5, 0.25], [1.0]]],
    ids=lambda x: str(getattr(x, "dtype", "ragged")),
)
def test_whole_sequence_passes_refuse_input_that_is_not_real_numbers(name, x):
    run, k = WHOLE_SEQUENCE_PASSES[name]
    with pytest.raises(ShapeError):
        run(rand_weights(np.random.default_rng(17), 3, 2, (k,)), x)


def test_whole_sequence_passes_make_one_kernel_call_per_layer_or_phase(monkeypatch):
    calls = []
    kernel = tensor._stacked_point

    def counted(weights, cols, counter=None):
        calls.append(weights)
        return kernel(weights, cols, counter)

    def refused(*args, **kwargs):
        raise AssertionError("a whole-sequence pass called conv1d_point")

    monkeypatch.setattr(tensor, "_stacked_point", counted)
    for module in (tensor, dilated, strided):
        monkeypatch.setattr(module, "conv1d_point", refused)
    x = np.random.default_rng(14).uniform(-1, 1, 90).astype(np.float32)

    net = build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=4))
    forward_full(net, x)
    assert calls == [layer.weights for layer in net.layers] + [net.head]

    calls.clear()
    net = build_strided_network(
        NetworkSpec("strided", channels=3, kernel_size=3, strides=("down2", "up2", "down3", "up3")))
    net.forward(x)
    assert calls == [w for layer in net.layers
                     for w in ((layer.weights,) if layer.kind == "down" else layer.weights.phases)]


# ---------------------------------------------------------------------------
# masked 2D convs
# ---------------------------------------------------------------------------


def test_masked_zero_input_bias_only():
    rng = np.random.default_rng(8)
    w = rand_weights(rng, 3, 2, (2, 3))
    out = masked_conv2d(w, np.zeros((2, 5, 6), np.float32), "vertical")
    assert np.allclose(out, w.bias[:, None, None])
    wh = rand_weights(rng, 3, 2, (1, 2))
    out = masked_conv2d(wh, np.zeros((2, 5, 6), np.float32), "horizontal")
    assert np.allclose(out, wh.bias[:, None, None])


@pytest.mark.parametrize("kind,taps", [("vertical", (2, 3)), ("horizontal", (1, 2))])
@pytest.mark.parametrize("case", range(50))
def test_masked_matches_scalar_oracle(kind, taps, case):
    rng = np.random.default_rng(5000 + case)
    w = rand_weights(rng, 2, 2, taps)
    img = rng.uniform(-2, 2, (2, 5, 6)).astype(np.float32)
    got = masked_conv2d(w, img, kind)
    want = scalar_masked_conv2d(w.kernel, w.bias, img, kind)
    assert np.max(np.abs(got - want)) <= ORACLE_TOL


@pytest.mark.parametrize("kind", ["vertical", "horizontal"])
def test_masked_causality_all_pixel_pairs(kind):
    # perturbing pixel p2 must leave every output at or before p2 unchanged:
    # vertical sees only rows above, horizontal only strictly-left columns
    rng = np.random.default_rng(9)
    taps = (2, 3) if kind == "vertical" else (1, 2)
    w = rand_weights(rng, 2, 1, taps)
    img = rng.uniform(-1, 1, (1, 6, 6)).astype(np.float32)
    base = masked_conv2d(w, img, kind)
    for r2 in range(6):
        for c2 in range(6):
            pert = img.copy()
            pert[0, r2, c2] += 1.0
            out = masked_conv2d(w, pert, kind)
            if kind == "vertical":
                # rows <= r2 read nothing at or below row r2
                assert np.array_equal(out[:, : r2 + 1, :], base[:, : r2 + 1, :])
            else:
                # same row, columns <= c2 read only strictly-left pixels
                assert np.array_equal(out[:, r2, : c2 + 1], base[:, r2, : c2 + 1])
                assert np.array_equal(out[:, :r2, :], base[:, :r2, :])
                assert np.array_equal(out[:, r2 + 1 :, :], base[:, r2 + 1 :, :])


def test_masked_footprint_errors():
    rng = np.random.default_rng(10)
    w = rand_weights(rng, 1, 1, (4, 3))
    with pytest.raises(InsufficientContextError):
        masked_conv2d(w, np.zeros((1, 3, 8), np.float32), "vertical")
    with pytest.raises(InvalidParameterError):
        masked_conv2d(w, np.zeros((1, 8, 8), np.float32), "diagonal")
    wh = rand_weights(rng, 1, 1, (2, 2))
    with pytest.raises(ShapeError):
        masked_conv2d(wh, np.zeros((1, 8, 8), np.float32), "horizontal")


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def test_counter_soundness_exact():
    rng = np.random.default_rng(11)
    out_ch, in_ch, k = 3, 4, 2
    w = rand_weights(rng, out_ch, in_ch, (k,))
    counter = OpCounter()
    calls = 17
    for _ in range(calls):
        conv1d_point(w, [rng.uniform(-1, 1, in_ch).astype(np.float32) for _ in range(k)], counter)
    assert counter.macs == out_ch * in_ch * k * calls
    assert counter.node_evals == calls


def test_counter_full_and_masked_counts():
    rng = np.random.default_rng(12)
    w = rand_weights(rng, 2, 3, (2,))
    c = OpCounter()
    conv1d_full(w, rng.uniform(-1, 1, (3, 9)).astype(np.float32), dilation=2, counter=c)
    assert c.node_evals == 9 and c.macs == 2 * 3 * 2 * 9
    w2 = rand_weights(rng, 2, 1, (2, 3))
    c2 = OpCounter()
    masked_conv2d(w2, rng.uniform(-1, 1, (1, 4, 5)).astype(np.float32), "vertical", c2)
    assert c2.node_evals == 20 and c2.macs == 2 * 1 * 2 * 3 * 20
