"""Simplified 2D raster-order autoregressive image model with vertical and
horizontal masked streams.

Per block: a vertical conv reading rows strictly above the current pixel
(column window ending at the current column), and a horizontal conv reading
strictly-left pixels of the current row plus a 1x1 link from the block's
vertical features.  A linear head predicts the pixel, whose raw value is
written back into the image (deterministic feedback).

The naive engine runs a full vectorised image pass per generated pixel
(H*W passes per image).  The cached engine keeps one RowCache of the last
`kh` input rows per block, computes each block's vertical features one
entire row at a time, and advances the horizontal stream pixel by pixel
from small strictly-left tap windows.  Batch elements generate in lockstep,
so every point operation is a single matrix product across the batch.

With `row_pair`, the first block's vertical path is vconv -> stride-2 row
downsampling -> stride-2 row upsampling, scheduled across rows exactly like
the 1D strided engine (bursts of two rows, pending-row queue).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cache import RowCache
from .dilated import draw_weights
from .errors import InvalidParameterError, ScheduleViolationError
from .tensor import (
    DTYPE,
    ConvWeights,
    OpCounter,
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
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise InvalidParameterError("seed must fit in 64 bits")
        if min(self.height, self.width, self.channels, self.n_layers) < 1:
            raise InvalidParameterError("height, width, channels, n_layers must be >= 1")
        if min(self.kh, self.kw, self.h_kw) < 1:
            raise InvalidParameterError("kernel extents must be >= 1")
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
    link: np.ndarray                  # (c, c) 1x1 from vertical features
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
        link = rng.uniform(-a, a, size=(c, c)).astype(DTYPE)
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
    c = network.spec.channels
    for block in network.blocks:
        vpre = masked_conv2d(block.vert, v, "vertical", counter)
        if block.down is not None:
            vc = np.tanh(vpre)
            d = np.tanh(_row_down_full(block.down, vc, counter))
            vfeat = np.tanh(_row_up_full(block.up, d, counter))
        else:
            vfeat = np.tanh(vpre)
        hpre = masked_conv2d(block.horiz, hin, "horizontal", counter)
        hpre = hpre + _tdot(block.link, vfeat)
        if counter is not None:
            counter.add(c * c * vfeat.shape[1] * vfeat.shape[2] * vfeat.shape[3], nodes=0)
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
    if batch < 1:
        raise InvalidParameterError(f"batch must be >= 1, got {batch}")
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


def image_naive_generate(
    network: ImageNetwork, batch: int = 1, counter: OpCounter | None = None
) -> np.ndarray:
    """Generate each pixel with a complete fresh forward pass (H*W passes)."""
    state = image_naive_init(network, batch, counter)
    for _ in range(network.spec.height * network.spec.width):
        image_naive_step(network, state)
    return np.moveaxis(state.image[0], -1, 0)


# ---------------------------------------------------------------------------
# cached engine
# ---------------------------------------------------------------------------


class _PairState:
    """Row-rate burst scheduling for the vconv -> down -> up vertical path."""

    __slots__ = ("carry", "count", "pending")

    def __init__(self, channels: int, width: int, batch: int):
        self.carry = zeros((channels, width, batch))
        self.count = 0
        self.pending = deque()

    def feed(self, block: ImageBlock, vc_row: np.ndarray, counter: OpCounter | None) -> None:
        if self.count % 2 == 0:
            w = block.down
            d = w.bias[:, None, None] + _tdot(w.tap_mats[0], self.carry) + _tdot(w.tap_mats[1], vc_row)
            d = np.tanh(d)
            u = block.up
            n = vc_row.shape[1] * vc_row.shape[2]
            if counter is not None:
                counter.add(w.out_channels * w.in_channels * 2 * n, nodes=n)
                counter.add(u.out_channels * u.in_channels * 2 * n, nodes=2 * n)
            self.pending.append(np.tanh(u.bias[:, None, None] + _tdot(u.tap_mats[0], d)))
            self.pending.append(np.tanh(u.bias[:, None, None] + _tdot(u.tap_mats[1], d)))
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
    v_rows: list
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
    """One output row of a vertical conv from the cached rows above it."""
    stack = cache.rows_stack()  # (in, kh, W, B)
    in_ch, kh, W, B = stack.shape
    kw = w.kernel.shape[3]
    pad = kw - 1
    sp = np.pad(stack, ((0, 0), (0, 0), (pad, 0), (0, 0)))
    out = np.broadcast_to(w.bias[:, None, None], (w.out_channels, W, B)).astype(DTYPE).copy()
    for i in range(kh):
        for j in range(kw):
            out += _tdot(w.kernel[:, :, i, j], sp[:, i, j : j + W, :])
    if counter is not None:
        n = W * B
        counter.add(w.out_channels * in_ch * kh * kw * n, nodes=n)
    return out


def image_incremental_init(
    network: ImageNetwork, batch: int = 1, counter: OpCounter | None = None
) -> ImageGenState:
    if batch < 1:
        raise InvalidParameterError(f"batch must be >= 1, got {batch}")
    spec = network.spec
    caches = []
    for i in range(spec.n_layers):
        in_v = 1 if i == 0 else spec.channels
        caches.append(RowCache(spec.kh, spec.width, in_v, batch=batch))
    pair = _PairState(spec.channels, spec.width, batch) if spec.row_pair else None
    state = ImageGenState(
        row_caches=caches,
        pair=pair,
        h_hist=[deque(maxlen=spec.h_kw) for _ in range(spec.n_layers)],
        v_rows=[None] * spec.n_layers,
        image=zeros((1, spec.height, spec.width, batch)),
        r=0,
        c=0,
        batch=batch,
        counter=counter or OpCounter(),
    )
    if pair is not None:
        # Initial burst: vconv row 0 exists before any pixel (zero padding only).
        vc0 = np.tanh(_vconv_row(network.blocks[0].vert, caches[0], state.counter))
        pair.feed(network.blocks[0], vc0, state.counter)
    return state


def vertical_row_pass(network: ImageNetwork, state: ImageGenState, row_index: int) -> list:
    """Compute every block's vertical features for one full row, in order.

    Must be called exactly once per row, at the row's start; the result is
    cached on the state for all horizontal computations of that row.
    """
    if row_index != state.r or state.c != 0 or state.v_ready:
        raise ScheduleViolationError(
            f"vertical_row_pass(row={row_index}) out of order at (r={state.r}, c={state.c})"
        )
    spec = network.spec
    rows = []
    for i, block in enumerate(network.blocks):
        if i == 0 and state.pair is not None:
            if not state.pair.pending:
                raise ScheduleViolationError(f"no pending vertical row for row {row_index}")
            rows.append(state.pair.pending.popleft())
        else:
            rows.append(np.tanh(_vconv_row(block.vert, state.row_caches[i], state.counter)))
    for i in range(spec.n_layers - 1):
        state.row_caches[i + 1].push_row(rows[i])
    state.v_rows = rows
    state.v_ready = True
    for i, hist in enumerate(state.h_hist):
        hist.clear()
        in_h = 1 if i == 0 else spec.channels
        for _ in range(spec.h_kw):
            hist.append(zeros((in_h, state.batch)))
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
        pre = pre + block.link @ state.v_rows[i][:, col, :]
        if counter is not None:
            counter.add(spec.channels * spec.channels * state.batch, nodes=0)
        hs.append(np.tanh(pre))
    y = conv1d_point(network.proj, [hs[-1]], counter)
    state.h_hist[0].append(y)
    for i in range(spec.n_layers - 1):
        state.h_hist[i + 1].append(hs[i])
    state.image[:, state.r, col, :] = y
    state.c += 1
    if state.c == spec.width:
        state.row_caches[0].push_row(state.image[:, state.r, :, :])
        if state.pair is not None:
            vc = np.tanh(_vconv_row(network.blocks[0].vert, state.row_caches[0], counter))
            state.pair.feed(network.blocks[0], vc, counter)
        state.c = 0
        state.r += 1
        state.v_ready = False
    return y


def image_incremental_step(network: ImageNetwork, state: ImageGenState) -> np.ndarray:
    """Generate the next raster pixel of every batch element: (1, batch).

    A row's first pixel also runs that row's `vertical_row_pass`.
    """
    if state.r == network.spec.height:
        raise ScheduleViolationError("image already complete")
    if state.c == 0:
        vertical_row_pass(network, state, state.r)
    return _pixel_step(network, state)


def image_incremental_generate(
    network: ImageNetwork, batch: int = 1, counter: OpCounter | None = None
) -> np.ndarray:
    """Row-cached generation; matches image_naive_generate to float32 noise."""
    state = image_incremental_init(network, batch, counter)
    for _ in range(network.spec.height * network.spec.width):
        image_incremental_step(network, state)
    return np.moveaxis(state.image[0], -1, 0)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def receptive_field_2d(spec: ImageSpec) -> tuple[int, int]:
    """Bounding box (rows, cols) of image positions that can influence one pixel.

    Computed by interval propagation over the stream chain (worst case over
    row parity for the strided pair), clipped to the image.
    """
    rows_up = 0
    cols_left = 0
    v_up, v_left = 0, 0
    for i in range(spec.n_layers):
        v_up += spec.kh
        v_left += spec.kw - 1
        if spec.row_pair and i == 0:
            # down2 then up2 over rows: lookback grows by at most kh + 2 rows
            v_up += 2
        cols_left = max(cols_left, v_left)
        rows_up = max(rows_up, v_up)
        cols_left += spec.h_kw
    rows = min(spec.height, rows_up + 1)
    cols = min(spec.width, cols_left + 1)
    return rows, cols


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
