"""Simplified 2D raster-order autoregressive image model with vertical and
horizontal masked streams.

Per block: a vertical conv reading rows strictly above the current pixel
(column window ending at the current column), and a horizontal conv reading
strictly-left pixels of the current row plus a 1x1 link (a bias-free
`ConvWeights`) from the block's vertical features.  A linear head predicts
the pixel, whose raw value is written back into the image (deterministic
feedback).  The cached engine evaluates each block's horizontal conv and
link as one node of `ImageBlock.folded`, [W_h taps | W_link | b]; the
oracle `forward_image` keeps them apart.

The naive engine runs a full vectorised image pass per generated pixel
(H*W passes per image).  The cached engine keeps one RowCache of the last
`kh` input rows per block.  Its row-rate work is every block's vertical
row for the entire row, one dot over the row's W*B columns into the
state's `vnext`, the vconv column filled with one copy per cached row, and
one copy of `vnext` into `vrows`, which the row's groups read.  Row r+1's
runs during row r, like the vertical stack of Gated PixelCNN.  Blocks
n-1 .. 1 read only rows <= r, so each takes one of row r's pop steps, last
block first, and pushes its row into the next block's cache.  Block 0
pushes image row r, which its history in `buf` holds, and row r's groups
read `vrows`, so block 0 and the copy run on the step right after row r's
last group.  With no such step (W % n == 1, or n == 1) they run in row
r+1's `vertical_row_pass`, which otherwise only computes row 0.  The last
row computes nothing for a row below the image.

The horizontal streams advance in wavefront groups.  Block 0 reads pixels
strictly left and block i reads block i-1 strictly left, so y_j reads only
pixels <= j - n, n = `n_layers`: once y_{c-1} is known, so are y_c ..
y_{c+n-1}.  A pixel step with no pending pixel runs one group, blocks 0 to
n-1, then the head: block i computes its columns through c + i (i + 1 at
the row's start, then n) with one window copy and one copy of its vertical
row's g columns into a `Column` [h_kw taps; vertical row; 1], one
`conv1d_point` of `folded` over its g*B columns and a tanh into the next
block's input history.  The head's g pixels go into block 0's history
and are queued for the next g - 1 steps.  After its head, the row's last
group computes the columns that read its own pixels, which no output
reads, so a row's node and MAC counts are those of a full pass.  The
schedule is compiled once per (W, n); a state binds it to views on its
first group.  `cached_rows_values()` counts neither the input histories,
n*C*(h_kw+W)*B floats, nor `vrows`, and of `vnext` only the last block's
row, from its computation until block 0's copy.  Batch elements generate
in lockstep, so every point operation is a single matrix product across
the batch.

With `row_pair`, the first block's vertical path is vconv -> stride-2 row
downsampling -> stride-2 row upsampling, scheduled across rows like the 1D
strided engine: block 0 feeds each new vconv row (every second feed is a
burst that queues two rows) and then pops one pending row.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .cache import RowCache
from .dilated import _check_int, _check_int_fields, draw_weights
from .errors import InvalidParameterError, ScheduleViolationError
from .tensor import (
    DTYPE,
    Column,
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

    @cached_property
    def folded(self) -> ConvWeights:
        """The horizontal conv and the link as one node, [W_h taps | W_link | b],
        over the column [h_kw input taps; the vertical row; 1]: for block 0,
        whose input has one channel, the link's C inputs are C one-channel
        taps.  Built on first use, once per network."""
        h = self.horiz
        link = self.link.kernel.reshape(h.out_channels, h.in_channels, -1)
        return ConvWeights(np.concatenate((h.kernel[:, :, 0], link), axis=2), h.bias)

    def __reduce__(self):  # copies and pickles carry the fields, not `folded`
        return ImageBlock, (self.vert, self.horiz, self.link, self.down, self.up)


@dataclass(frozen=True)
class ImageNetwork:
    spec: ImageSpec
    blocks: tuple[ImageBlock, ...]
    proj: ConvWeights

    def __hash__(self):
        return hash(self.spec)  # equal networks have equal specs


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

    Every even-count feed fires the down layer over the state's column
    [previous row; this row; 1], which each odd-count feed's row enters as
    the carry, and queues the two rows the up layer emits from it.
    """

    __slots__ = ("column", "count", "pending")

    def __init__(self, channels: int, width: int, batch: int):
        self.column = zeros((2 * channels + 1, width * batch))  # the carry of row -1 is zeros
        self.column[-1] = 1.0
        self.count = 0
        self.pending = deque()

    def feed(self, block: ImageBlock, vc_row: np.ndarray, counter: OpCounter | None) -> None:
        c, W, B = vc_row.shape
        n = W * B
        if self.count % 2 == 0:
            self.column[c:-1] = vc_row.reshape(c, n)
            d = np.dot(block.down.fused, self.column)
            np.tanh(d, out=d)
            u = block.up
            for tap in u.tap_mats:
                up = tap.dot(d)
                up += u.bias[:, None]
                self.pending.append(np.tanh(up, out=up).reshape(c, W, B))
            if counter is not None:
                counter.add(block.down.macs * n, nodes=n)
                counter.add(u.macs * n, nodes=2 * n)
        else:
            self.column[:c] = vc_row.reshape(c, n)
        self.count += 1

    def stored_values(self) -> int:
        return self.column[: len(self.column) // 2].size + sum(int(r.size) for r in self.pending)


@dataclass(eq=False)
class ImageGenState:
    """All mutable state of one cached 2D generation run.  `buf` holds each
    block's input history in the row, h_kw zero columns then W, with 1 row
    (the image's) for block 0 and C for each further block; `vrows` holds
    each block's vertical row of the current row, (C, W*B), which its group
    ops copy into their columns, and `vnext` each block's next-row vertical
    row, from its computation to block 0's copy of all of them into `vrows`;
    `groups`, the views over `buf` and `vrows`, is built by the first group,
    also in copies and pickles.
    `ahead`, the compiled `_schedule`'s vertical blocks per step, is set by
    each row's `vertical_row_pass` and cleared at the row's end; `v_done`
    counts the vertical rows computed, one per block and row, last block
    first."""

    row_caches: list
    pair: _PairState | None
    buf: np.ndarray
    vrows: np.ndarray
    vnext: np.ndarray
    pending: deque
    r: int
    c: int
    batch: int
    counter: OpCounter
    ahead: tuple | None = None
    v_done: int = 0
    groups = None  # not a field, so neither copied nor pickled

    def __reduce__(self):
        return ImageGenState, tuple(getattr(self, f.name) for f in fields(self))

    def cached_rows_values(self) -> int:
        total = sum(rc.stored_values() for rc in self.row_caches)
        if self.pair is not None:
            total += self.pair.stored_values()
        if self.v_done % len(self.row_caches):  # the last block's row awaits its copy
            total += self.vnext[-1].size
        return total


def _vconv_row(w: ConvWeights, cache: RowCache, counter: OpCounter | None,
               out: np.ndarray | None = None) -> np.ndarray:
    """One output row of a vertical conv from the cached rows above it: one
    dot over the cache's fused column of W*B columns, where output column c
    reads columns c-kw+1 .. c of every cached row, zero left of the image;
    into `out`, a C-contiguous (C, W*B) array, when given."""
    column = cache.column()
    n = column.shape[1]
    if counter is not None:
        counter.add(w.macs * n, nodes=n)
    return np.dot(w.fused, column, out).reshape(w.out_channels, cache.width, cache.batch)


def image_incremental_init(
    network: ImageNetwork, batch: int = 1, counter: OpCounter | None = None
) -> ImageGenState:
    batch = _check_int("batch", batch, 1)
    spec = network.spec
    c, W = spec.channels, spec.width
    return ImageGenState(
        row_caches=[RowCache(spec.kh, W, 1 if i == 0 else c, batch, spec.kw)
                    for i in range(spec.n_layers)],
        pair=_PairState(c, W, batch) if spec.row_pair else None,
        buf=zeros((1 + (spec.n_layers - 1) * c, (spec.h_kw + W) * batch)),
        vrows=zeros((spec.n_layers, c, W * batch)),
        vnext=zeros((spec.n_layers, c, W * batch)),
        pending=deque(),
        r=0,
        c=0,
        batch=batch,
        counter=counter or OpCounter(),
    )


def _vertical_row(network: ImageNetwork, state: ImageGenState, i: int, row: int) -> None:
    """Block i's vertical row `row`: its vconv and tanh into `vnext[i]`, then
    its push into block i+1's cache (the last block's row stays in `vnext`).
    Block 0 first pushes image row `row - 1`, which its history in `buf`
    holds, into its own cache and, with the pair, feeds the vconv row to it
    and takes its pending row; it then copies `vnext` into `vrows`.  A row's
    blocks run last first, so a block pushes only after the next block has
    read that cache; block 0 runs only once the image row above is complete,
    so no group still reads `vrows` or block 0's history."""
    spec = network.spec
    n = spec.n_layers
    if state.v_done != row * n + n - 1 - i or (
            i == 0 and row > state.r and state.c + len(state.pending) < spec.width):
        raise ScheduleViolationError(f"vertical row {row} of block {i} out of order")
    caches, counter, block = state.row_caches, state.counter, network.blocks[i]
    if i == 0 and row > 0:
        caches[0].push_row(state.buf[:1, spec.h_kw * state.batch :].reshape(caches[0].row_shape))
    v = _vconv_row(block.vert, caches[i], counter, state.vnext[i])
    np.tanh(v, out=v)
    if block.down is not None:
        state.pair.feed(block, v, counter)
        if not state.pair.pending:
            raise ScheduleViolationError(f"no pending vertical row for row {row}")
        v[...] = state.pair.pending.popleft()
    if i < n - 1:
        caches[i + 1].push_row(v)
    state.v_done += 1
    if i == 0:
        state.vrows[...] = state.vnext


def vertical_row_pass(network: ImageNetwork, state: ImageGenState, row_index: int) -> list:
    """Start a row: compute what no earlier step could, then return every
    block's vertical row `row_index` (views of `vrows`, valid until the next
    row's block-0 step).

    Must be called exactly once per row, at the row's start.  Row 0 computes
    all its vertical rows here.  Each later row's are computed by the steps
    of the row above, as `_schedule` places them; what it leaves to the row
    start, block 0 and the copy into `vrows` when no step follows the last
    group, runs here.  Raises if the row's vertical rows are then not all
    computed.
    """
    if row_index != state.r or state.c != 0 or state.ahead is not None:
        raise ScheduleViolationError(
            f"vertical_row_pass(row={row_index}) out of order at (r={state.r}, c={state.c})"
        )
    spec = network.spec
    if row_index == spec.height:
        raise ScheduleViolationError("image already complete")
    n = spec.n_layers
    _, ahead, start = _schedule(spec.width, n)
    for i in start if row_index else reversed(range(n)):
        _vertical_row(network, state, i, row_index)
    if state.v_done != (row_index + 1) * n:
        raise ScheduleViolationError(f"vertical rows of row {row_index} not all computed")
    state.ahead = ahead
    return list(state.vrows.reshape(n, spec.channels, spec.width, state.batch))


@cache
def _schedule(width: int, n_layers: int) -> tuple:
    """A row's steps, compiled: (groups, ahead, start).

    groups: per group from pixel c = n_layers * index, the (block, lo, hi)
    column ranges run before the head, then those run after it (the row's
    last).  ahead: per pixel step, the blocks whose next-row vertical row it
    computes after its group or pop; None where there are none and the row
    does not end there, so most pop steps test one value.  Blocks n-1 .. 1
    read only rows above the current one, so they take the pop steps before
    the last group, one each, last block first.  Block 0 reads the whole
    current row from its history in `buf` and copies `vnext` into the
    `vrows` that the row's groups read, so it and any block left over go
    on the step right after the last group.  When the last group is the
    row's last step, they make up `start` instead and run at the next
    row's start.
    """
    groups = []
    for c in range(0, width, n_layers):
        main = tuple((i, max(0, c - n_layers + i + 1), min(c + i + 1, width))
                     for i in range(n_layers))
        tail = tuple((i, hi, width) for i, _, hi in main if c + n_layers >= width > hi)
        groups.append((main, tail))
    last = n_layers * (len(groups) - 1)
    early = [c for c in range(last) if c % n_layers]
    blocks = range(n_layers - 1, 0, -1)
    ahead = [None] * (width - 1) + [()]
    for c, i in zip(early, blocks):
        ahead[c] = (i,)
    start = (*blocks[len(early):], 0)
    if last + 1 < width:
        ahead[last + 1], start = start, ()
    return tuple(groups), tuple(ahead), start


def _bind_groups(spec: ImageSpec, state: ImageGenState) -> tuple:
    """`_schedule` over this state's buffers: per group its block ops, head
    Column, pixels' place in block 0's history and ops after the head.
    An op is (block, window, Column taps, vertical row, Column link rows,
    Column, dot output, dest); scratch is shared by equal shapes: each is
    written just before it is read."""
    C, B, hk, n = spec.channels, state.batch, spec.h_kw, spec.n_layers
    buf, (row, step) = state.buf, state.buf.strides
    ins = [1] + [C] * (n - 1)
    starts = list(accumulate([0] + ins))
    windows = [np.ndarray((hk, k, spec.width * B), DTYPE, buf, a * row, (B * step, row, step))
               for a, k in zip(starts, ins)]
    inputs = [buf[a:b, hk * B :] for a, b in zip(starts, starts[1:])]  # after the zero columns
    out = cache(lambda m: np.empty((C, m), DTYPE))
    heads = cache(lambda m: Column(np.ones((C + 1, m), DTYPE), C))

    @cache
    def column(k, m):  # [h_kw taps of k channels; the C-channel vertical row; 1]
        col = Column(np.ones((hk * k + C + 1, m), DTYPE), k)
        return col, col.buf[: hk * k].reshape(hk, k, m), col.buf[hk * k : -1]

    def op(i, lo, hi, head):
        a, b = lo * B, hi * B
        col, taps, link = column(ins[i], b - a)
        dest = inputs[i + 1][:, a:b] if i < n - 1 else head.buf[:-1]
        return i, windows[i][:, :, a:b], taps, state.vrows[i][:, a:b], link, col, out(b - a), dest

    groups = []
    for main, tail in _schedule(spec.width, n)[0]:
        _, c, end = main[-1]  # the head's pixels
        head = heads((end - c) * B)
        groups.append(([op(*r, head) for r in main], head, inputs[0][:, c * B : end * B],
                       [op(*r, head) for r in tail]))
    return tuple(groups)


def _horizontal(blocks, ops, counter: OpCounter) -> None:
    """Each op's block node over its columns: the horizontal conv and the
    link as one dot of `folded`, then a tanh into the next block's input."""
    for i, window, taps, vrow, link, column, out, dest in ops:
        taps[...] = window
        link[...] = vrow
        conv1d_point(blocks[i].folded, column, counter, out)
        np.tanh(out, dest)  # ufunc out positional: numpy parses it faster


def _pixel_step(network: ImageNetwork, state: ImageGenState) -> np.ndarray:
    c = state.c
    try:
        todo = state.ahead[c]
    except TypeError:  # ahead is None until the row's vertical_row_pass
        raise ScheduleViolationError("pixel step before vertical_row_pass") from None
    if not state.pending:  # run the next group
        if state.groups is None:
            state.groups = _bind_groups(network.spec, state)
        ops, head, y_dest, tail = state.groups[c // network.spec.n_layers]
        _horizontal(network.blocks, ops, state.counter)
        y = conv1d_point(network.proj, head, state.counter)
        y_dest[...] = y
        state.pending.extend(y.reshape(-1, 1, state.batch))
        _horizontal(network.blocks, tail, state.counter)
    if todo is not None:
        if state.r + 1 < network.spec.height:  # nothing below the last row
            for i in todo:
                _vertical_row(network, state, i, state.r + 1)
        if c + 1 == network.spec.width:
            state.c = 0
            state.r += 1
            state.ahead = None
            return state.pending.popleft()
    state.c = c + 1
    return state.pending.popleft()


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
    try:
        img = np.asarray(image, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidParameterError("expected a numeric 2D image") from None
    if img.ndim != 2 or img.size == 0 or not np.isfinite(img).all():
        raise InvalidParameterError(f"expected a non-empty finite 2D image, got shape {img.shape}")
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    quant = np.clip((img - lo) * scale, 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + quant.tobytes())
