"""Dense float32 tensors and the convolution kernels every engine shares.

Values are plain numpy float32 arrays in row-major (C) order; `as_tensor`
is the coercion point that pins dtype and layout.  All generation engines
route each hidden/output node through the same point primitive below: one
dot product of the fused weight matrix [W_0 | ... | W_{k-1} | b] with the
column [taps oldest to newest; 1].  Equal shapes always take the same BLAS
path, and `_stacked_point`, the kernel of the 1D whole-sequence passes and of
the naive dilated engine's pyramid levels, runs that gemv for each column of
an (n, K, 1) stack (a property of the BLAS build, verified with
numpy 2.4.6 and scipy-openblas 0.3.31), so all of them compare bit for bit.

The column is either concatenated per call from a sequence of tap arrays,
or already assembled: a `Column` is the k tap views of one preallocated
[taps; 1] buffer, which an engine fills in place, so the point evaluation is
the dot alone.  A `Column`'s geometry and batch width are checked once, when
it is built, and recorded as its `fit` (taps, rows) and `n`; a call only
compares that `fit` with the weights' `fit`.  Three cached steps evaluate
their nodes over `Column`s: the dilated step over rows of a (layers-1, 2C+1)
matrix held once per network and per thread (see `convgen.dilated`; that
workspace is not engine state and `state_bytes` does not count it), the
strided step over the columns of one buffer per state, into whose taps each
input is routed straight to the node that reads it, an up node being one of
its layer's one-tap `ConvWeights.phases` over the [vec; 1] column of its
input (`convgen.strided`), and the image engine's wavefront groups over
scratch `Column`s of g*B columns, one per block input width and group size,
into which each group copies a block's g input windows from the state's row
history and its vertical row's g columns; one call of the block's horizontal
conv and 1x1 link, folded into one weight matrix, then evaluates g pixels
of a block for the whole batch (`convgen.image2d`).  The whole-sequence up
conv runs the same one-tap phases, one stacked call per phase;
`transposed_point` is a name only, for perfbench's tracer.

`ConvWeights` is the one weight type: every array in it is read-only, a copy
or a pickle is rebuilt through its constructor, and `==` compares values.
The constructor checks and copies what it is given; it serves outside input,
copies, pickles and the weights derived from others (an image block's
folded and interleaved weights).  What the network builders draw
(`dilated.draw_uniform`) and a weight's `phases` are built by the private
`ConvWeights._trusted` instead, from read-only arrays their maker laid out
and checked: no coercion, no shape or finiteness check and no copy.

Every kernel accepts an optional `OpCounter` and reports exact
multiply-accumulate and node-evaluation counts; these counters, not wall
time, are the primary complexity measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    EmptyInputError,
    InsufficientContextError,
    InvalidParameterError,
    ScheduleViolationError,
    ShapeError,
)

DTYPE = np.float32


def as_tensor(data) -> np.ndarray:
    """Coerce `data` to a C-contiguous float32 array."""
    return np.ascontiguousarray(data, dtype=DTYPE)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=DTYPE)


def _check_int(name: str, v, lo: int) -> int:
    """`v` as an int, if it is an integer (an int or a numpy integer, not a
    bool) in [lo, 2**64 - 1]; InvalidParameterError otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {v!r}")
    v = int(v)
    if not lo <= v <= 2**64 - 1:
        raise InvalidParameterError(f"{name} must be in [{lo}, 2**64 - 1], got {v}")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only: for arrays shared between callers."""
    a.setflags(write=False)
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


@dataclass(frozen=True, init=False)
class ConvWeights:
    """Convolution filter bank: kernel [out, in, k] (1D) or [out, in, kh, kw] (2D),
    plus a bias of shape [out].

    `fused` is the (out, k*in + 1) matrix [W_0 | ... | W_{k-1} | b], where
    W_j = kernel[:, :, j] in flattened tap order, so a point evaluation is a
    single dot product.  `out_channels` and `in_channels` are the kernel's
    first two extents, `k` the number of taps, `macs` the exact
    multiply-accumulates of one node and `fit` the pair (k, k*in + 1) that
    a `Column` must match.  `kernel` is a private copy (for drawn weights,
    a view of the builder's read-only buffer), `bias` is a view of `fused`,
    and so is each of `tap_mats`, the k blocks W_j, made on each access;
    `phases`, the k one-tap weights whose `fused` are the contiguous blocks
    [W_j | b] of one (k, out, in + 1) array (one node of input j emits
    output phase j of a transposed conv), is built on first use.
    Every array is read-only, so the kernels that read `kernel` and
    those that read `fused` cannot drift apart.  The constructor checks
    its arguments and stores each field once.  A copy or a pickle is
    rebuilt through the constructor from `kernel` and `bias`, so it keeps
    both promises; `==` compares `kernel` and `bias` by value.
    `_trusted(kernel, fused)` is the unchecked constructor, for the network
    builders and `phases`, which make both arrays themselves; everything
    else, outside input above all, goes through the checked one.
    """

    kernel: np.ndarray
    bias: np.ndarray

    def __init__(self, kernel, bias):
        kernel, bias = as_tensor(kernel), as_tensor(bias)
        if kernel.ndim not in (3, 4):
            raise ShapeError(f"kernel must be 3D or 4D, got shape {kernel.shape}")
        if 0 in kernel.shape:
            raise InvalidParameterError(f"kernel extents must be >= 1: {kernel.shape}")
        out, in_ch = kernel.shape[:2]
        if bias.shape != (out,):
            raise ShapeError(f"bias shape {bias.shape} does not match out_channels {out}")
        k = kernel.size // (out * in_ch)
        fused = np.empty((out, k * in_ch + 1), DTYPE)
        fused[:, :-1].reshape(out, k, in_ch)[...] = kernel.reshape(out, in_ch, k).transpose(0, 2, 1)
        fused[:, -1] = bias
        if not np.isfinite(fused).all():  # fused holds every kernel and bias value
            raise InvalidParameterError("weights must be finite")
        self._adopt(_frozen(kernel.copy()), _frozen(fused))

    @classmethod
    def _trusted(cls, kernel, fused):
        """The weights over a read-only `kernel` and its read-only, C-contiguous
        `fused`, taken as they are: no coercion, shape or finiteness check and
        no copy.  For callers that made both arrays from values they checked."""
        return object.__new__(cls)._adopt(kernel, fused)

    def _adopt(self, kernel, fused):
        """Set every field from a checked, read-only `kernel` and its `fused`."""
        out, in_ch = kernel.shape[:2]
        k = kernel.size // (out * in_ch)
        # object.__setattr__, not __dict__: the values stay inline, where loads
        # are fastest; one call per field, not a loop over (name, value) pairs
        set_ = object.__setattr__
        set_(self, "kernel", kernel)
        set_(self, "bias", fused[:, -1])
        set_(self, "fused", fused)
        set_(self, "out_channels", out)
        set_(self, "in_channels", in_ch)
        set_(self, "k", k)
        set_(self, "macs", kernel.size)
        set_(self, "fit", (k, k * in_ch + 1))
        return self

    @property
    def tap_mats(self) -> tuple:  # read by the whole-image passes alone, so not stored
        in_ch = self.in_channels
        return tuple([self.fused[:, j : j + in_ch] for j in range(0, self.k * in_ch, in_ch)])

    @cached_property
    def phases(self) -> tuple:  # from arrays checked already, not through the constructor
        out, in_ch, k = self.out_channels, self.in_channels, self.k
        blocks = np.empty((k, out, in_ch + 1), DTYPE)
        blocks[:, :, :in_ch] = self.fused[:, :-1].reshape(out, k, in_ch).transpose(1, 0, 2)
        blocks[:, :, in_ch] = self.bias
        kernels = self.kernel.reshape(out, in_ch, k)
        return tuple([ConvWeights._trusted(kernels[:, :, j : j + 1], fused)
                      for j, fused in enumerate(_frozen(blocks))])

    def __reduce__(self):
        return ConvWeights, (self.kernel, self.bias)

    def __eq__(self, other):
        return (type(other) is ConvWeights and np.array_equal(self.kernel, other.kernel)
                and np.array_equal(self.bias, other.bias))


_ONE = _frozen(np.ones(1, dtype=DTYPE))
_ONE_BYTES = _ONE.tobytes()


@cache
def _ones_row(batch: int) -> np.ndarray:
    return _frozen(np.ones((1, batch), dtype=DTYPE))


class Column(tuple):
    """The k taps of one preallocated point-evaluation column, oldest first.

    `buf` is a C-contiguous float32 array of shape (k*in_channels + 1,) or
    (k*in_channels + 1, batch) whose last row is ones: the column
    [tap_0; ...; tap_{k-1}; 1] that `conv1d_point` otherwise concatenates.
    The tuple items are views of `buf`, so writing a tap writes the column.
    The geometry and the ones row are checked here, once, and recorded as
    `fit`, the pair (taps, rows) a `ConvWeights.fit` must equal, and `n`,
    the batch width; keeping the ones row is up to the owner of `buf`.
    """

    def __new__(cls, buf: np.ndarray, in_channels: int):
        if not (
            isinstance(buf, np.ndarray)
            and buf.dtype == DTYPE
            and buf.ndim in (1, 2)
            and buf.flags.c_contiguous
        ):
            raise ShapeError("a Column buffer is a C-contiguous 1D or 2D float32 array")
        rows = buf.shape[0] - 1
        if in_channels < 1 or rows < in_channels or rows % in_channels:
            raise ShapeError(
                f"column of {buf.shape[0]} rows is not k*{in_channels} + 1 with k >= 1"
            )
        last = buf[-1:]
        if last.tobytes() != _ONE_BYTES * last.size:  # 1.0 has one float32 bit pattern
            raise InvalidParameterError("the last row of a Column buffer must be ones")
        self = super().__new__(cls, [buf[j : j + in_channels] for j in range(0, rows, in_channels)])
        self.buf = buf
        self.fit = (rows // in_channels, rows + 1)
        self.n = 1 if buf.ndim == 1 else buf.shape[1]
        return self


def conv1d_point(
    weights: ConvWeights, taps, counter: OpCounter | None = None, out=None
) -> np.ndarray:
    """Evaluate one output position from `k` taps ordered oldest to newest.

    Each tap is an (in_channels,) vector, or (in_channels, batch) for
    batched lockstep generation.  The result is one dot product,
    `weights.fused @ [tap_0; ...; tap_{k-1}; 1]`, with the bias as the
    last weight.  `taps` is a sequence of tap arrays, concatenated into the
    column here, or a `Column`, whose buffer is the column: its geometry and
    batch width were checked when it was built, so a `Column` takes a path
    of its own, the comparison of its `fit` with the weights', the dot, and
    the counter update only when a counter is given.  Every cached node of
    every family comes this way.  With `out`, a C-contiguous float32 array of
    the result's shape, the result is written there and `out` is returned.
    """
    if type(taps) is Column:  # the cached engines' per-node hot path: the dot alone
        if taps.fit != weights.fit:
            raise ShapeError(
                "column of {} taps and {} rows for weights of {} taps and {} rows".format(
                    *taps.fit, *weights.fit)
            )
        try:
            out = weights.fused.dot(taps.buf, out)  # out positional: numpy parses it faster
        except ValueError as exc:
            raise ShapeError(f"out does not fit the result: {exc}") from None
        if counter is not None:  # OpCounter.add, inlined
            n = taps.n
            counter.macs += weights.macs * n
            counter.node_evals += n
        return out
    if len(taps) != weights.k:
        raise ShapeError(f"expected {weights.k} taps, got {len(taps)}")
    in_ch = weights.in_channels
    for tap in taps:  # _check_tap, inlined: the naive engines' per-node hot path
        if tap.ndim not in (1, 2) or tap.shape[0] != in_ch:
            raise ShapeError(
                f"tap shape {tap.shape} incompatible with in_channels {in_ch}"
            )
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
    try:
        out = weights.fused.dot(column, out)  # out positional: numpy parses it faster
    except ValueError as exc:
        raise ShapeError(f"out does not fit the result: {exc}") from None
    if counter is not None:  # OpCounter.add, inlined
        counter.macs += weights.macs * n
        counter.node_evals += n
    return out


def _sequence(weights: ConvWeights, x) -> np.ndarray:
    """Check an [in_channels, T] input of real numbers (not bools) and return its
    T steps as contiguous float32 rows: every 1D pass computes in float32."""
    try:
        x = np.asarray(x)
    except (TypeError, ValueError):  # ragged nesting
        raise ShapeError("input must be an [in_channels, T] array") from None
    if x.dtype.kind not in "iuf":
        raise ShapeError(f"input must be real numbers, got dtype {x.dtype}")
    if x.ndim != 2 or x.shape[0] != weights.in_channels:
        raise ShapeError(f"input shape {x.shape} != (in_channels, T)")
    if x.shape[1] == 0:
        raise EmptyInputError("empty input sequence")
    return np.ascontiguousarray(x.T, DTYPE)


def _stacked_point(weights: ConvWeights, cols: np.ndarray, counter=None) -> np.ndarray:
    """The (n, out) outputs of `weights` over an (n, K, 1) stack of [taps; 1] columns:
    one gemv per column, each that column's `conv1d_point` bit for bit; a gemm is not."""
    out = np.matmul(weights.fused, cols)[:, :, 0]
    if counter is not None:
        counter.add(weights.macs * len(cols), len(cols))
    return out


def _causal_conv(weights, x, stride: int, dilation: int, counter) -> np.ndarray:
    """Output j reads inputs stride*j - (k-1-i)*dilation, i = 0..k-1; zero before 0,
    gathered from one zero row; stride and dilation clip to T, so no index overflows."""
    xc = _sequence(weights, x)
    T, k = len(xc), weights.k
    rows = np.concatenate((zeros((1, weights.in_channels)), xc))  # row 0: every tap before 0
    at = np.arange(0, T, min(stride, T))[:, None] - np.arange(k - 1, -1, -1) * min(dilation, T)
    cols = np.ones((len(at), k * weights.in_channels + 1, 1), DTYPE)
    cols[:, :-1, 0] = rows[np.maximum(at, -1) + 1].reshape(len(at), -1)
    return np.ascontiguousarray(_stacked_point(weights, cols, counter).T)


def conv1d_full(
    weights: ConvWeights,
    x: np.ndarray,
    dilation: int = 1,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Dilated causal convolution over a whole [in_channels, T] sequence.

    The output keeps length T; out-of-range (pre-sequence) taps read as zero.
    """
    return _causal_conv(weights, x, 1, _check_int("dilation", dilation, 1), counter)


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
    return _causal_conv(weights, x, _check_int("stride", stride, 1), 1, counter)


def transposed_point(*args):  # a name only: perfbench's tracer patches it here and in strided
    raise ScheduleViolationError("transposed_point is gone: an up node is conv1d_point over a phase")


def strided_transposed_conv1d(
    weights: ConvWeights,
    x: np.ndarray,
    stride: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Upsampling convolution: input j emits outputs stride*j .. stride*j+stride-1.

    Kernel size must equal the stride so each output position has exactly one
    contributing input and output length is exactly stride*T.  Outputs
    stride*j+r are one `_stacked_point` of the one-tap `weights.phases[r]`
    over the columns [x_j; 1], as the cached strided engine evaluates them.
    """
    stride = _check_int("stride", stride, 1)
    if weights.k != stride:
        raise InvalidParameterError(
            f"transposed conv requires kernel size == stride (got k={weights.k}, stride={stride})"
        )
    xc = _sequence(weights, x)
    cols = np.ones((len(xc), weights.in_channels + 1, 1), DTYPE)
    cols[:, :-1, 0] = xc
    out = np.stack([_stacked_point(phase, cols, counter) for phase in weights.phases], axis=1)
    return np.ascontiguousarray(out.reshape(-1, weights.out_channels).T)


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
