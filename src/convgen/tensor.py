"""Dense float32 tensors and the convolution kernels every engine shares.

Values are plain numpy float32 arrays in row-major (C) order; `as_tensor`
is the coercion point that pins dtype and layout.  All generation engines
route each hidden/output node through the same point primitives below with
a fixed accumulation order (bias, then taps oldest to newest), so the naive
and cached paths can be compared bit for bit.  The vectorised full-array
variants keep the same per-tap order.

Every kernel accepts an optional `OpCounter` and reports exact
multiply-accumulate and node-evaluation counts; these counters, not wall
time, are the primary complexity measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


class OpCounter:
    """Multiply-accumulate / node-evaluation counter for one engine run.

    Counts are exact and monotone within a run.  A counter is owned by a
    single generation state and must not be shared across concurrently
    running engines.
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

    `tap_mats` pre-slices the kernel into one contiguous (out, in) matrix per
    tap, in tap order, so point evaluations don't re-copy strided views.
    """

    kernel: np.ndarray
    bias: np.ndarray
    tap_mats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kernel = as_tensor(self.kernel)
        bias = as_tensor(self.bias)
        if kernel.ndim not in (3, 4):
            raise ShapeError(f"kernel must be 3D or 4D, got shape {kernel.shape}")
        if any(s < 1 for s in kernel.shape):
            raise InvalidParameterError(f"kernel extents must be >= 1: {kernel.shape}")
        if bias.shape != (kernel.shape[0],):
            raise ShapeError(
                f"bias shape {bias.shape} does not match out_channels {kernel.shape[0]}"
            )
        if not (np.isfinite(kernel).all() and np.isfinite(bias).all()):
            raise InvalidParameterError("weights must be finite")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "bias", bias)
        flat = kernel.reshape(kernel.shape[0], kernel.shape[1], -1)
        mats = tuple(
            np.ascontiguousarray(flat[:, :, j]) for j in range(flat.shape[2])
        )
        object.__setattr__(self, "tap_mats", mats)

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    @property
    def k(self) -> int:
        """Total taps per output position (k for 1D, kh*kw for 2D)."""
        return int(np.prod(self.kernel.shape[2:]))


def _check_tap(tap: np.ndarray, in_channels: int) -> None:
    if tap.ndim not in (1, 2) or tap.shape[0] != in_channels:
        raise ShapeError(
            f"tap shape {tap.shape} incompatible with in_channels {in_channels}"
        )


def conv1d_point(weights: ConvWeights, taps, counter: OpCounter | None = None) -> np.ndarray:
    """Evaluate one output position from `k` taps ordered oldest to newest.

    Each tap is an (in_channels,) vector, or (in_channels, batch) for
    batched lockstep generation.  Accumulation order is fixed: bias first,
    then taps in ascending (oldest-first) order.
    """
    mats = weights.tap_mats
    if len(taps) != len(mats):
        raise ShapeError(f"expected {len(mats)} taps, got {len(taps)}")
    in_ch = weights.in_channels
    first = taps[0]
    _check_tap(first, in_ch)
    acc = weights.bias if first.ndim == 1 else weights.bias[:, None]
    acc = acc + mats[0] @ first
    for j in range(1, len(mats)):
        tap = taps[j]
        _check_tap(tap, in_ch)
        acc += mats[j] @ tap
    if counter is not None:
        n = 1 if first.ndim == 1 else first.shape[1]
        counter.add(weights.out_channels * in_ch * len(mats) * n, nodes=n)
    return acc


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
