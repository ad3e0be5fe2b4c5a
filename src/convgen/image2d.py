"""Simplified 2D raster-order autoregressive image model with vertical and
horizontal masked streams.

Per block: a vertical conv reading rows strictly above the current pixel
(column window ending at the current column), and a horizontal conv reading
strictly-left pixels of the current row plus a 1x1 link (a bias-free
`ConvWeights`) from the block's vertical features.  A linear head predicts
the pixel, whose raw value is written back into the image (deterministic
feedback).

The naive engine runs a full vectorised image pass per generated pixel
(H*W passes per image).  The cached engine keeps one RowCache of the last
`kh` input rows per block and does all row-rate work in one
`vertical_row_pass` at each row's start: every block's vertical features
and their 1x1 link for the entire row, each one fused dot over the row's
W*B columns.  The vconv column is filled with one copy per cached row, from
the RowCache's padded ring of column windows; the links are written
straight into the (W, C, B) layout the pixel steps read.  It then advances the horizontal stream pixel by pixel from
small strictly-left tap windows.  Batch elements generate in lockstep, so
every point operation is a single matrix product across the batch.

With `row_pair`, the first block's vertical path is vconv -> stride-2 row
downsampling -> stride-2 row upsampling, scheduled across rows like the 1D
strided engine: each row pass feeds the new vconv row (every second feed
is a burst that queues two rows) and then pops one pending row.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cache import RowCache
from .dilated import _check_int, _check_int_fields, draw_weights
from .errors import InvalidParameterError, ScheduleViolationError
from .tensor import (
    DTYPE,
    ConvWeights,
    OpCounter,
    _ones_row,
    conv1d_point,
    masked_conv2d,
    zeros,
)


@dataclass(frozen=True)
class ImageSpec:
    """Geometry and layer description of a 2D model; (spec, seed) pins all weights.

    `channels` is the hidden feature width; images themselves are single
    channel (grayscale, matching the PGM dump interface).
    """

    height: int
    width: int
    channels: int = 8
    n_layers: int = 3
    kh: int = 2
    kw: int = 3
    h_kw: int = 2
    row_pair: bool = False
    seed: int = 0
    family: ClassVar[str] = "image2d"

    def __post_init__(self):
        _check_int_fields(
            self, height=1, width=1, channels=1, n_layers=1, kh=1, kw=1, h_kw=1, seed=0
        )
        if not isinstance(self.row_pair, (bool, np.bool_)):
            raise InvalidParameterError(f"row_pair must be a bool, got {self.row_pair!r}")
        object.__setattr__(self, "row_pair", bool(self.row_pair))
        if self.kh > self.height or self.kw > self.width or self.h_kw > self.width:
            raise InvalidParameterError(
                f"kernels ({self.kh}x{self.kw}, 1x{self.h_kw}) must fit inside "
                f"the {self.height}x{self.width} image"
            )
        if self.row_pair and self.height % 2 != 0:
            raise InvalidParameterError("row_pair requires an even image height")


@dataclass(frozen=True)
class ImageBlock:
    vert: ConvWeights                 # (c, in_v, kh, kw), rows strictly above
    horiz: ConvWeights                # (c, in_h, 1, h_kw), strictly left
    link: ConvWeights                 # (c, c, 1) 1x1 from vertical features, zero bias
    down: ConvWeights | None = None   # (c, c, 2) stride-2 over rows
    up: ConvWeights | None = None     # (c, c, 2) transposed stride-2 over rows


@dataclass(frozen=True)
class ImageNetwork:
    spec: ImageSpec
    blocks: tuple[ImageBlock, ...]
    proj: ConvWeights


def build_image_network(spec: ImageSpec) -> ImageNetwork:
    rng = np.random.default_rng(spec.seed)
    c = spec.channels
    blocks = []
    for i in range(spec.n_layers):
        in_v = 1 if i == 0 else c
        vert = draw_weights(rng, c, in_v, (spec.kh, spec.kw))
        down = up = None
        if spec.row_pair and i == 0:
            down = draw_weights(rng, c, c, 2)
            up = draw_weights(rng, c, c, 2)
        a = 0.5 / np.sqrt(c)
        link = ConvWeights(rng.uniform(-a, a, size=(c, c, 1)).astype(DTYPE), zeros(c))
        in_h = 1 if i == 0 else c
        horiz = draw_weights(rng, c, in_h, (1, spec.h_kw))
        blocks.append(ImageBlock(vert=vert, horiz=horiz, link=link, down=down, up=up))
    proj = draw_weights(rng, 1, c, 1)
    return ImageNetwork(spec, tuple(blocks), proj)


def _tdot(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.tensordot(mat, x, axes=(1, 0))


def _row_down_full(w: ConvWeights, x: np.ndarray, counter: OpCounter | None) -> np.ndarray:
    """Stride-2 conv over rows: output j reads rows 2j-1 (zero at -1) and 2j."""
    c, H, W, B = x.shape
    xp = np.concatenate([zeros((c, 1, W, B)), x], axis=1)
    prev = xp[:, 0:H:2]
    cur = x[:, 0::2]
    out = w.bias[:, None, None, None] + _tdot(w.tap_mats[0], prev) + _tdot(w.tap_mats[1], cur)
    if counter is not None:
        n = (H // 2) * W * B
        counter.add(w.out_channels * w.in_channels * 2 * n, nodes=n)
    return out.astype(DTYPE, copy=False)


def _row_up_full(w: ConvWeights, x: np.ndarray, counter: OpCounter | None) -> np.ndarray:
    """Transposed stride-2 over rows: input j emits rows 2j and 2j+1."""
    c, Hd, W, B = x.shape
    out = np.empty((w.out_channels, 2 * Hd, W, B), dtype=DTYPE)
    out[:, 0::2] = w.bias[:, None, None, None] + _tdot(w.tap_mats[0], x)
    out[:, 1::2] = w.bias[:, None, None, None] + _tdot(w.tap_mats[1], x)
    if counter is not None:
        n = 2 * Hd * W * B
        counter.add(w.out_channels * w.in_channels * n, nodes=n)
    return out


def forward_image(network: ImageNetwork, images: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Full vectorised forward pass: (1, H, W, B) image -> (1, H, W, B) predictions.

    The prediction at (r, c) depends only on pixels preceding (r, c) in
    raster order, so it is valid before that pixel exists.
    """
    v = images
    hin = images
    for block in network.blocks:
        vpre = masked_conv2d(block.vert, v, "vertical", counter)
        if block.down is not None:
            vc = np.tanh(vpre)
            d = np.tanh(_row_down_full(block.down, vc, counter))
            vfeat = np.tanh(_row_up_full(block.up, d, counter))
        else:
            vfeat = np.tanh(vpre)
        hpre = masked_conv2d(block.horiz, hin, "horizontal", counter)
        hpre = hpre + _tdot(block.link.kernel[:, :, 0], vfeat)
        if counter is not None:
            counter.add(block.link.macs * vfeat[0].size, nodes=0)
        hfeat = np.tanh(hpre)
        v = vfeat
        hin = hfeat
    pred = network.proj.bias[:, None, None, None] + _tdot(network.proj.tap_mats[0], hin)
    if counter is not None:
        n = hin.shape[1] * hin.shape[2] * hin.shape[3]
        counter.add(network.proj.in_channels * n, nodes=n)
    return pred.astype(DTYPE, copy=False)


@dataclass
class ImageNaiveState:
    """The image generated so far; pixel t of it is predicted next."""

    image: np.ndarray
    t: int
    counter: OpCounter


def image_naive_init(
    network: ImageNetwork, batch: int = 1, counter: OpCounter | None = None
) -> ImageNaiveState:
    batch = _check_int("batch", batch, 1)
    spec = network.spec
    image = zeros((1, spec.height, spec.width, batch))
    return ImageNaiveState(image=image, t=0, counter=counter or OpCounter())


def image_naive_step(network: ImageNetwork, state: ImageNaiveState) -> np.ndarray:
    """Predict the next raster pixel of every batch element with a full forward pass: (1, batch)."""
    r, c = divmod(state.t, network.spec.width)
    if r == network.spec.height:
        raise ScheduleViolationError("image already complete")
    y = forward_image(network, state.image, state.counter)[:, r, c, :]
    state.image[:, r, c, :] = y
    state.t += 1
    return y


# ---------------------------------------------------------------------------
# cached engine
# ---------------------------------------------------------------------------


class _PairState:
    """Row-rate burst scheduling for the vconv -> down -> up vertical path.

    Every even-count feed fires the down layer over [previous row; this row]
    and queues the two rows the up layer emits from it.
    """

    __slots__ = ("carry", "count", "pending")

    def __init__(self, channels: int, width: int, batch: int):
        self.carry = zeros((channels, width, batch))
        self.count = 0
        self.pending = deque()

    def feed(self, block: ImageBlock, vc_row: np.ndarray, counter: OpCounter | None) -> None:
        if self.count % 2 == 0:
            c, W, B = vc_row.shape
            n = W * B
            column = np.concatenate((self.carry.reshape(c, n), vc_row.reshape(c, n), _ones_row(n)))
            d = np.dot(block.down.fused, column)
            np.tanh(d, out=d)
            u = block.up
            for tap in u.tap_mats:
                up = tap.dot(d)
                up += u.bias[:, None]
                self.pending.append(np.tanh(up, out=up).reshape(c, W, B))
            if counter is not None:
                counter.add(block.down.macs * n, nodes=n)
                counter.add(u.macs * n, nodes=2 * n)
        self.carry = vc_row
        self.count += 1

    def stored_values(self) -> int:
        return int(self.carry.size) + sum(int(r.size) for r in self.pending)


@dataclass
class ImageGenState:
    """All mutable state of one cached 2D generation run."""

    row_caches: list
    pair: _PairState | None
    h_hist: list
    links: list  # per block: its 1x1 link of the current vertical row, (W, C, B)
    image: np.ndarray
    r: int
    c: int
    batch: int
    counter: OpCounter
    v_ready: bool = False

    def cached_rows_values(self) -> int:
        total = sum(rc.stored_values() for rc in self.row_caches)
        if self.pair is not None:
            total += self.pair.stored_values()
        return total


def _vconv_row(w: ConvWeights, cache: RowCache, counter: OpCounter | None) -> np.ndarray:
    """One output row of a vertical conv from the cached rows above it.

    Output column c reads columns c-kw+1 .. c of every cached row, zero left
    of the image.  Each cached row's kw column windows fill its block of the
    `fused` tap order with one copy, oldest row first, over a row of ones,
    so the whole row is one dot over W*B columns.
    """
    W, B = cache.width, cache.batch
    n = W * B
    column = np.empty((w.fused.shape[1], n), dtype=DTYPE)
    column[-1] = 1.0
    taps = column[:-1].reshape(cache.height, cache.kw, cache.channels, W, B)
    for i, windows in enumerate(cache.windows()):
        taps[i] = windows
    if counter is not None:
        counter.add(w.macs * n, nodes=n)
    return np.dot(w.fused, column).reshape(w.out_channels, W, B)


def image_incremental_init(
    network: ImageNetwork, batch: int = 1, counter: OpCounter | None = None
) -> ImageGenState:
    batch = _check_int("batch", batch, 1)
    spec = network.spec
    caches = []
    for i in range(spec.n_layers):
        in_v = 1 if i == 0 else spec.channels
        caches.append(RowCache(spec.kh, spec.width, in_v, batch, spec.kw))
    return ImageGenState(
        row_caches=caches,
        pair=_PairState(spec.channels, spec.width, batch) if spec.row_pair else None,
        h_hist=[deque(maxlen=spec.h_kw) for _ in range(spec.n_layers)],
        links=[None] * spec.n_layers,
        image=zeros((1, spec.height, spec.width, batch)),
        r=0,
        c=0,
        batch=batch,
        counter=counter or OpCounter(),
    )


def vertical_row_pass(network: ImageNetwork, state: ImageGenState, row_index: int) -> list:
    """All row-rate work of one row; returns every block's vertical features.

    Must be called exactly once per row, at the row's start.  It pushes the
    image row above into block 0's cache, computes the blocks' vertical rows
    in order, and applies each block's 1x1 link for the row's pixel steps.
    """
    if row_index != state.r or state.c != 0 or state.v_ready:
        raise ScheduleViolationError(
            f"vertical_row_pass(row={row_index}) out of order at (r={state.r}, c={state.c})"
        )
    spec = network.spec
    if row_index == spec.height:
        raise ScheduleViolationError("image already complete")
    counter = state.counter
    if row_index > 0:
        state.row_caches[0].push_row(state.image[:, row_index - 1])
    rows = []
    for i, block in enumerate(network.blocks):
        row = _vconv_row(block.vert, state.row_caches[i], counter)
        np.tanh(row, out=row)
        if i == 0 and state.pair is not None:
            state.pair.feed(block, row, counter)
            if not state.pair.pending:
                raise ScheduleViolationError(f"no pending vertical row for row {row_index}")
            row = state.pair.pending.popleft()
        rows.append(row)
    for i in range(spec.n_layers - 1):
        state.row_caches[i + 1].push_row(rows[i])
    c, n = spec.channels, spec.width * state.batch
    # (W, C, B), so that each pixel step adds one contiguous (C, B) block
    state.links = []
    for block, row in zip(network.blocks, rows):
        state.links.append(np.matmul(block.link.kernel[:, :, 0], row.transpose(1, 0, 2)))
        counter.add(block.link.macs * n, nodes=0)
    state.v_ready = True
    for i, hist in enumerate(state.h_hist):  # strictly-left taps start as zeros
        hist.extend([zeros((1 if i == 0 else c, state.batch))] * spec.h_kw)
    return rows


def _pixel_step(network: ImageNetwork, state: ImageGenState) -> np.ndarray:
    spec = network.spec
    if not state.v_ready:
        raise ScheduleViolationError("pixel step before vertical_row_pass")
    counter = state.counter
    col = state.c
    hs = []
    for i, block in enumerate(network.blocks):
        pre = conv1d_point(block.horiz, list(state.h_hist[i]), counter)
        pre += state.links[i][col]
        hs.append(np.tanh(pre, out=pre))
    y = conv1d_point(network.proj, [hs[-1]], counter)
    state.h_hist[0].append(y)
    for i in range(spec.n_layers - 1):
        state.h_hist[i + 1].append(hs[i])
    state.image[:, state.r, col, :] = y
    state.c += 1
    if state.c == spec.width:
        state.c = 0
        state.r += 1
        state.v_ready = False
    return y


def image_incremental_step(network: ImageNetwork, state: ImageGenState) -> np.ndarray:
    """Generate the next raster pixel of every batch element: (1, batch).

    A row's first pixel also runs that row's `vertical_row_pass`, which
    raises once the image is complete.
    """
    if state.c == 0:
        vertical_row_pass(network, state, state.r)
    return _pixel_step(network, state)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def receptive_field_2d(spec: ImageSpec) -> tuple[int, int]:
    """Bounding box (rows, cols) of image positions that can influence one pixel.

    Computed by interval propagation over the stream chain (worst case over
    row parity for the strided pair), clipped to the image.
    """
    v_up = v_left = cols_left = 0
    for i in range(spec.n_layers):
        v_up += spec.kh
        v_left += spec.kw - 1
        if spec.row_pair and i == 0:
            # down2 then up2 over rows: lookback grows by at most kh + 2 rows
            v_up += 2
        # block i's horizontal stream reads h_kw columns left of block i-1's
        # and, through the link, block i's vertical column window
        cols_left = max(cols_left + spec.h_kw, v_left)
    return min(spec.height, v_up + 1), min(spec.width, cols_left + 1)


def write_pgm(path, image: np.ndarray) -> None:
    """Dump a single image as binary PGM (P5) after min-max normalisation."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise InvalidParameterError(f"expected a 2D image, got shape {img.shape}")
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    quant = np.clip((img - lo) * scale, 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + quant.tobytes())
