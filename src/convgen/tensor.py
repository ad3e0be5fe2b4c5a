"""Dense float32 tensors and the convolution kernels every engine shares.

Values are plain numpy float32 arrays in row-major (C) order; `as_tensor`
is the coercion point that pins dtype and layout.  All generation engines
route each hidden/output node through the same point primitive below: one
dot product of the fused weight matrix [W_0 | ... | W_{k-1} | b] with the
column [taps oldest to newest; 1].  Equal shapes always take the same BLAS
path, so the naive and cached paths, and the whole-sequence kernels built
on the same primitive, can be compared bit for bit.

Every kernel accepts an optional `OpCounter` and reports exact
multiply-accumulate and node-evaluation counts; these counters, not wall
time, are the primary complexity measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    EmptyInputError,
    InsufficientContextError,
    InvalidParameterError,
    ShapeError,
)

DTYPE = np.float32


def as_tensor(data) -> np.ndarray:
    """Coerce `data` to a C-contiguous float32 array."""
    return np.ascontiguousarray(data, dtype=DTYPE)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=DTYPE)


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only: for arrays shared between callers."""
    a.flags.writeable = False
    return a


class OpCounter:
    """Multiply-accumulate / node-evaluation counter for one engine run.

    Counts are exact and monotone within a run.  The states of one rollout
    may share a counter, because they step one after another; it must not be
    shared across concurrently running engines.
    """

    __slots__ = ("macs", "node_evals")

    def __init__(self) -> None:
        self.macs = 0
        self.node_evals = 0

    def add(self, macs: int, nodes: int = 1) -> None:
        self.macs += macs
        self.node_evals += nodes

    def snapshot(self) -> tuple[int, int]:
        return self.macs, self.node_evals

    def __repr__(self) -> str:
        return f"OpCounter(macs={self.macs}, node_evals={self.node_evals})"


@dataclass(frozen=True)
class ConvWeights:
    """Convolution filter bank: kernel [out, in, k] (1D) or [out, in, kh, kw] (2D),
    plus a bias of shape [out].

    `fused` is the (out, k*in + 1) matrix [W_0 | ... | W_{k-1} | b], where
    W_j = kernel[:, :, j] in flattened tap order, so a point evaluation is a
    single dot product, and `tap_mats` holds the k blocks W_j as views of it.
    `k` is the number of taps and `macs` the exact multiply-accumulates of
    one node.  Everything is built once, at construction, and every array is
    read-only (`kernel` and `bias` are private copies), so the kernels that
    read `kernel` and those that read `fused` cannot drift apart.
    """

    kernel: np.ndarray
    bias: np.ndarray
    fused: np.ndarray = field(init=False, repr=False, compare=False)
    out_channels: int = field(init=False, repr=False, compare=False)
    in_channels: int = field(init=False, repr=False, compare=False)
    k: int = field(init=False, repr=False, compare=False)
    macs: int = field(init=False, repr=False, compare=False)
    tap_mats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kernel = _frozen(as_tensor(self.kernel).copy())
        bias = _frozen(as_tensor(self.bias).copy())
        if kernel.ndim not in (3, 4):
            raise ShapeError(f"kernel must be 3D or 4D, got shape {kernel.shape}")
        if min(kernel.shape) < 1:
            raise InvalidParameterError(f"kernel extents must be >= 1: {kernel.shape}")
        out, in_ch = kernel.shape[:2]
        if bias.shape != (out,):
            raise ShapeError(f"bias shape {bias.shape} does not match out_channels {out}")
        flat = kernel.reshape(out, in_ch, -1)
        k = flat.shape[2]
        fused = np.concatenate(
            (flat.transpose(0, 2, 1).reshape(out, k * in_ch), bias[:, None]), axis=1
        )
        if not np.isfinite(fused).all():
            raise InvalidParameterError("weights must be finite")
        values = dict(
            kernel=kernel,
            bias=bias,
            fused=_frozen(fused),
            out_channels=out,
            in_channels=in_ch,
            k=k,
            macs=kernel.size,
            tap_mats=tuple(fused[:, j * in_ch : (j + 1) * in_ch] for j in range(k)),
        )
        for name, value in values.items():
            object.__setattr__(self, name, value)


def _check_tap(tap: np.ndarray, in_channels: int) -> None:
    if tap.ndim not in (1, 2) or tap.shape[0] != in_channels:
        raise ShapeError(
            f"tap shape {tap.shape} incompatible with in_channels {in_channels}"
        )


_ONE = _frozen(np.ones(1, dtype=DTYPE))


@cache
def _ones_row(batch: int) -> np.ndarray:
    return _frozen(np.ones((1, batch), dtype=DTYPE))


def conv1d_point(weights: ConvWeights, taps, counter: OpCounter | None = None) -> np.ndarray:
    """Evaluate one output position from `k` taps ordered oldest to newest.

    Each tap is an (in_channels,) vector, or (in_channels, batch) for
    batched lockstep generation.  The result is one dot product,
    `weights.fused @ [tap_0; ...; tap_{k-1}; 1]`, with the bias as the
    last weight.
    """
    if len(taps) != weights.k:
        raise ShapeError(f"expected {weights.k} taps, got {len(taps)}")
    in_ch = weights.in_channels
    for tap in taps:  # _check_tap, inlined: this is the engines' per-node hot path
        if tap.ndim not in (1, 2) or tap.shape[0] != in_ch:
            raise ShapeError(f"tap shape {tap.shape} incompatible with in_channels {in_ch}")
    first = taps[0]
    if first.ndim == 1:
        n, ones = 1, _ONE
    else:
        n = first.shape[1]
        ones = _ones_row(n)
    try:
        column = np.concatenate((*taps, ones))
    except ValueError:
        raise ShapeError(
            f"taps disagree in batch shape: {[t.shape for t in taps]}"
        ) from None
    out = weights.fused.dot(column)
    if counter is not None:
        counter.add(weights.macs * n, n)
    return out


def _sequence(weights: ConvWeights, x) -> np.ndarray:
    """Check an [in_channels, T] input and return its T steps as contiguous rows.

    Contiguous tap copies keep the dot-product code path (and therefore the
    exact accumulation) identical to the engines' point evaluations.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != weights.in_channels:
        raise ShapeError(f"input shape {x.shape} != (in_channels, T)")
    if x.shape[1] == 0:
        raise EmptyInputError("empty input sequence")
    return np.ascontiguousarray(x.T)


def _causal_conv(weights, x, stride: int, dilation: int, counter) -> np.ndarray:
    """Output j reads inputs stride*j - (k-1-i)*dilation, i = 0..k-1; zero before 0."""
    xc = _sequence(weights, x)
    k = weights.k
    zero = zeros(weights.in_channels)
    cols = []
    for hi in range(0, len(xc), stride):
        positions = [hi - (k - 1 - i) * dilation for i in range(k)]
        taps = [xc[p] if p >= 0 else zero for p in positions]
        cols.append(conv1d_point(weights, taps, counter))
    return np.stack(cols, axis=1)


def conv1d_full(
    weights: ConvWeights,
    x: np.ndarray,
    dilation: int = 1,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Dilated causal convolution over a whole [in_channels, T] sequence.

    The output keeps length T; out-of-range (pre-sequence) taps read as zero.
    """
    if dilation < 1:
        raise InvalidParameterError(f"dilation must be >= 1, got {dilation}")
    return _causal_conv(weights, x, 1, dilation, counter)


def strided_conv1d(
    weights: ConvWeights,
    x: np.ndarray,
    stride: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Downsampling convolution: output j reads inputs stride*j-(k-1) .. stride*j.

    Out-of-range (pre-sequence) taps read as zero, so the alignment is causal:
    output j becomes available exactly when input stride*j does.
    """
    if stride < 1:
        raise InvalidParameterError(f"stride must be >= 1, got {stride}")
    return _causal_conv(weights, x, stride, 1, counter)


def transposed_point(
    weights: ConvWeights,
    phase: int,
    vec: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """One output of a transposed conv: position stride*j+phase from input j."""
    mats = weights.tap_mats
    if not 0 <= phase < len(mats):
        raise InvalidParameterError(f"phase {phase} out of range for k={len(mats)}")
    _check_tap(vec, weights.in_channels)
    acc = weights.bias if vec.ndim == 1 else weights.bias[:, None]
    out = acc + mats[phase] @ vec
    if counter is not None:
        n = 1 if vec.ndim == 1 else vec.shape[1]
        counter.add(weights.out_channels * weights.in_channels * n, nodes=n)
    return out


def strided_transposed_conv1d(
    weights: ConvWeights,
    x: np.ndarray,
    stride: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Upsampling convolution: input j emits outputs stride*j .. stride*j+stride-1.

    Kernel size must equal the stride so each output position has exactly one
    contributing input and output length is exactly stride*T.
    """
    if stride < 1:
        raise InvalidParameterError(f"stride must be >= 1, got {stride}")
    if weights.k != stride:
        raise InvalidParameterError(
            f"transposed conv requires kernel size == stride (got k={weights.k}, stride={stride})"
        )
    cols = []
    for vec in _sequence(weights, x):
        for r in range(stride):
            cols.append(transposed_point(weights, r, vec, counter))
    return np.stack(cols, axis=1)


def masked_conv2d(
    weights: ConvWeights,
    x: np.ndarray,
    mask_kind: str,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Raster-causal 2D convolution over a full [in_channels, H, W] map.

    vertical: output (r, c) reads rows r-kh .. r-1 (strictly above), columns
    c-kw+1 .. c (window ending at the current column).
    horizontal: kernel is [out, in, 1, kw]; output (r, c) reads the current
    row at columns c-kw .. c-1 (strictly left).
    Out-of-image taps read as zero; footprints larger than the image are
    rejected rather than wrapped.
    """
    if mask_kind not in ("vertical", "horizontal"):
        raise InvalidParameterError(f"unknown mask kind {mask_kind!r}")
    x = np.asarray(x)
    batched = x.ndim == 4
    if not batched:
        x = x[..., None]
    if x.ndim != 4 or x.shape[0] != weights.in_channels:
        raise ShapeError(f"input shape {x.shape} != (in_channels, H, W[, batch])")
    if weights.kernel.ndim != 4:
        raise ShapeError("masked_conv2d requires a 4D kernel")
    kh, kw = weights.kernel.shape[2], weights.kernel.shape[3]
    _, H, W, B = x.shape
    if mask_kind == "horizontal" and kh != 1:
        raise ShapeError(f"horizontal kernel must have height 1, got {kh}")
    if kh > H or kw > W:
        raise InsufficientContextError(
            f"kernel footprint {kh}x{kw} exceeds image {H}x{W}"
        )
    # Row/column shift per tap index (i, j), ascending order in both axes.
    if mask_kind == "vertical":
        row_off = lambda i: i - kh          # rows r-kh .. r-1
        col_off = lambda j: j - (kw - 1)    # cols c-kw+1 .. c
    else:
        row_off = lambda i: 0               # current row only
        col_off = lambda j: j - kw          # cols c-kw .. c-1
    pad_r, pad_c = kh, kw
    xp = np.pad(x, ((0, 0), (pad_r, pad_r), (pad_c, pad_c), (0, 0)))
    out = np.broadcast_to(
        weights.bias[:, None, None, None], (weights.out_channels, H, W, B)
    ).astype(DTYPE).copy()
    flat = weights.kernel
    for i in range(kh):
        for j in range(kw):
            dr, dc = row_off(i), col_off(j)
            block = xp[:, pad_r + dr : pad_r + dr + H, pad_c + dc : pad_c + dc + W, :]
            out += np.tensordot(flat[:, :, i, j], block, axes=(1, 0))
    if counter is not None:
        n = H * W * B
        counter.add(weights.out_channels * weights.in_channels * kh * kw * n, nodes=n)
    out = np.ascontiguousarray(out, dtype=DTYPE)
    return out if batched else out[..., 0]
