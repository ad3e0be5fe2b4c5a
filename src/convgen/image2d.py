"""Simplified 2D raster-order autoregressive image model with vertical and
horizontal masked streams.

Per block: a vertical conv reading rows strictly above the current pixel
(column window ending at the current column), and a horizontal conv reading
strictly-left pixels of the current row plus a 1x1 link (a bias-free
`ConvWeights`) from the block's vertical features.  A linear head predicts
the pixel, whose raw value is written back into the image (deterministic
feedback).  With `row_pair`, the first block's vertical path is vconv ->
stride-2 row downsampling -> stride-2 row upsampling.  The naive engine
runs a full vectorised image pass per generated pixel (H*W passes).

The cached engine computes row r+1's vertical rows during row r, like the
vertical stack of Gated PixelCNN, and writes each where it is read: block
i's into block i+1's `RowCache` ring, the last block's into `last`.
Blocks n-1 .. 1 read only rows <= r and take one pop step each.  Block 0
reads row r up to its column, so it runs after the groups that write those
pixels, on a burst row (the pair's down and up rows) in up to three column
chunks.  The horizontal streams advance in wavefront groups: y_j reads only pixels <= j - n, n = `n_layers`, so once y_{c-1} is
known one group computes y_c .. y_{c+n-1}, each block one `conv1d_point`
of `ImageBlock.folded` ([W_h taps | W_link | b]; the oracle `forward_image`
keeps them apart) over its columns, and the next steps pop the queued
pixels.  `_schedule` compiles a row's steps once per geometry.  Batch
elements generate in lockstep: every point op is one matrix product
across the batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from functools import cache, cached_property
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

    @cached_property
    def up_phases(self) -> tuple:
        """The up layer's phases as one-tap weights [W_j | b], one node each; built like `folded`."""
        u = self.up
        return tuple(ConvWeights(u.kernel[:, :, j : j + 1], u.bias) for j in range(u.k))

    def __reduce__(self):  # copies and pickles carry the fields, not the cached weights
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
    """The row pair's `carry`, block 0's vconv row of the last odd row,
    (C, W*B), read by the next burst's down node (zeros before row 1), and
    `count`, block 0's rows so far; `feed` computes an odd row into the carry."""

    __slots__ = ("carry", "count")

    def __init__(self, channels: int, width: int, batch: int):
        self.carry = zeros((channels, width * batch))
        self.count = 0

    def feed(self, block: ImageBlock, cache: RowCache, counter: OpCounter | None) -> None:
        if self.count % 2 == 0:
            raise ScheduleViolationError("an even vconv row is a burst, not a carry")
        v = _vconv_row(block.vert, cache, counter, self.carry)
        np.tanh(v, v)
        self.count += 1


@dataclass(eq=False)
class ImageGenState:
    """All mutable state of one cached 2D generation run.  `row_caches[i]`
    holds block i's vertical conv input (block 0: image rows, its current
    slot also its horizontal history; block i: block i-1's vertical rows)
    and `last` the last block's vertical rows, row t in slot t % slots
    (kh + 1; with the pair kh + 2 rounded up to even: a burst writes two
    rows ahead); row r's groups read slot r % slots.  `buf` holds blocks
    1 .. n-1's histories in the row, h_kw zero columns then W.  `groups`
    (the views), `scratch` (a burst chunk's, per column range) and `vout`
    (a whole vertical row's dot output) are built on first use, also in
    copies.
    `ahead` is the `_schedule` placement of the row's vertical ops; `v_done`
    counts vertical rows done, `v_cols` the columns of block 0's in progress."""

    row_caches: list
    last: np.ndarray
    pair: _PairState | None
    buf: np.ndarray
    pending: deque
    r: int
    c: int
    batch: int
    counter: OpCounter
    ahead: tuple | None = None
    v_done: int = 0
    v_cols: int = 0
    groups = scratch = vout = None  # not fields, so neither copied nor pickled

    def __reduce__(self):
        return ImageGenState, tuple(getattr(self, f.name) for f in fields(self))

    def outputs(self, i: int) -> np.ndarray:
        """Block i's vertical rows, (slots, C, W, B)."""
        return self.row_caches[i + 1].body if i + 1 < len(self.row_caches) else self.last

    def cached_rows_values(self) -> int:
        """The kh rows of every cache, the pair's carry, and each row written
        ahead of its reader's window (block i's next row until block i+1
        reads past its oldest row, the last block's until its row starts)."""
        caches = self.row_caches
        total = sum(rc.stored_values() for rc in caches)
        written = [rc.count for rc in caches]  # rows in each block's output
        if self.pair is not None:  # a burst writes two rows
            total += self.pair.carry.size
            written[0] += 2 if self.v_cols else written[0] % 2
        readers = [rc.count for rc in caches[1:]] + [self.r + 1]
        return total + self.last[0].size * sum(max(0, w - r) for w, r in zip(written, readers))


def _vconv_row(w: ConvWeights, cache: RowCache, counter: OpCounter | None,
               out: np.ndarray | None = None) -> np.ndarray:
    """One row of a vertical conv from the cached rows above it: one dot over
    the cache's fused W*B columns (output column c reads columns c-kw+1 .. c
    of every cached row, zero left of the image), into `out` when given."""
    column = cache.column().buf
    n = column.shape[1]
    if counter is not None:
        counter.add(w.macs * n, nodes=n)
    return np.dot(w.fused, column, out).reshape(w.out_channels, cache.width, cache.batch)


def image_incremental_init(
    network: ImageNetwork, batch: int = 1, counter: OpCounter | None = None
) -> ImageGenState:
    batch = _check_int("batch", batch, 1)
    spec = network.spec
    c, W, n = spec.channels, spec.width, spec.n_layers
    slots = spec.kh + 1 + (spec.row_pair and 1 + spec.kh % 2)
    image = RowCache(spec.kh, W, 1, batch, spec.kw, slots, max(spec.kw - 1, spec.h_kw))
    return ImageGenState(
        row_caches=[image, *(RowCache(spec.kh, W, c, batch, spec.kw, slots, spec.kw - 1)
                             for _ in range(n - 1))],
        last=zeros((slots, c, W, batch)),
        pair=_PairState(c, W, batch) if spec.row_pair else None,
        buf=zeros(((n - 1) * c, (spec.h_kw + W) * batch)),
        pending=deque(), r=0, c=0, batch=batch, counter=counter or OpCounter(),
    )


def _burst(network: ImageNetwork, state: ImageGenState, lo: int, hi: int, row: int) -> None:
    """Block 0's nodes of burst row `row` over columns lo .. hi-1, each one
    `conv1d_point` over the chunk: its vconv, the pair's down node over
    [carry; vconv; 1] and the two up phases, rows `row` and `row + 1`, in
    adjacent slots (even row, even slot count), so one tanh writes both."""
    block = network.blocks[0]
    if state.scratch is None:
        state.scratch = {}
    try:
        down, up, outs, out, carry, dests = state.scratch[lo, hi]
    except KeyError:
        C, B, rows = network.spec.channels, state.batch, state.outputs(0)
        m = (hi - lo) * B
        out = np.empty((2, C, hi - lo, B), DTYPE)  # (2, C, m, B) views: numpy's fast path
        down, up, outs, out, carry, dests = state.scratch[lo, hi] = (
            Column(np.ones((2 * C + 1, m), DTYPE), C), Column(np.ones((C + 1, m), DTYPE), C),
            tuple(out.reshape(2, C, m)), out, state.pair.carry[:, lo * B : hi * B],
            [rows[s : s + 2, :, lo:hi] for s in range(0, len(rows), 2)])
    counter, (up0, up1) = state.counter, block.up_phases
    down[0][...] = carry
    v = conv1d_point(block.vert, state.row_caches[0].column(lo, hi), counter, down[1])
    np.tanh(v, v)
    np.tanh(conv1d_point(block.down, down, counter, up[0]), up[0])
    conv1d_point(up0, up, counter, outs[0])
    conv1d_point(up1, up, counter, outs[1])
    np.tanh(out, dests[row % (2 * len(dests)) // 2])


def _vertical(network: ImageNetwork, state: ImageGenState, op: tuple, row: int) -> None:
    """Op (i, lo, hi): block i's vertical nodes of `row` over columns
    lo .. hi-1, into its output slot; only block 0 on a burst row splits,
    in column order.  A row's blocks run last first, block 0 only over
    pixels already written; any other order raises."""
    i, lo, hi = op
    spec = network.spec
    n, W = spec.n_layers, spec.width
    burst = i == 0 and state.pair is not None and row % 2 == 0
    if (state.v_done != row * n + n - 1 - i or state.v_cols != lo
            or not burst and (lo, hi) != (0, W)
            or i == 0 and row > state.r and state.c + len(state.pending) < hi):
        raise ScheduleViolationError(
            f"vertical row {row} of block {i}, columns {lo}..{hi - 1}, out of order")
    caches = state.row_caches
    if burst:
        _burst(network, state, lo, hi, row)
    elif i == 0 and state.pair is not None:
        state.pair.feed(network.blocks[0], caches[0], state.counter)
    else:
        if state.vout is None:  # the dot's output: ring slots are not C-contiguous
            state.vout = np.empty((spec.channels, W * state.batch), DTYPE)
        rows = state.outputs(i)
        v = _vconv_row(network.blocks[i].vert, caches[i], state.counter, state.vout)
        np.tanh(v, rows[row % len(rows)])
    state.v_cols = hi % W
    if hi == W:
        state.v_done += 1
        caches[i].count += 1
        if burst:
            state.pair.count += 1


def vertical_row_pass(network: ImageNetwork, state: ImageGenState, row_index: int) -> list:
    """Start a row, exactly once, at its start: compute what no earlier step
    could (all of row 0; what `_schedule` leaves to a later row's start),
    raise if any vertical row of the row is missing, and return every
    block's vertical row `row_index` (views of the slots its groups read)."""
    if row_index != state.r or state.c != 0 or state.ahead is not None:
        raise ScheduleViolationError(
            f"vertical_row_pass(row={row_index}) out of order at (r={state.r}, c={state.c})")
    spec = network.spec
    if row_index == spec.height:
        raise ScheduleViolationError("image already complete")
    n, W = spec.n_layers, spec.width
    _, rows = _schedule(W, n, spec.row_pair)
    ops = rows[(row_index - 1) % 2][1] if row_index else [(i, 0, W) for i in reversed(range(n))]
    for op in ops:
        _vertical(network, state, op, row_index)
    if state.v_done != (row_index + 1) * n:
        raise ScheduleViolationError(f"vertical rows of row {row_index} not all computed")
    state.ahead = rows[row_index % 2][0]
    return [state.outputs(i)[row_index % len(state.last)] for i in range(n)]


@cache
def _schedule(width: int, n_layers: int, row_pair: bool) -> tuple:
    """A row's steps, compiled: (groups, rows).  groups: per group from
    pixel c = n_layers * index, the (block, lo, hi) column ranges run before
    the head, then those run after it (the row's last).  rows[r % 2] =
    (ahead, start) places row r+1's vertical ops (i, lo, hi), block i over
    columns lo .. hi-1: ahead[c] those step c runs after its group or pop
    (None if none, and the row does not end there), start those left to
    row r+1's start.  Blocks n-1 .. 1 read rows <= r: a whole row each on
    the pops before the last group, last block first.  Block 0's op over
    lo .. hi-1 goes on a free pop after the group that computes pixel hi-1;
    on a burst row (r+1 even, with the pair) in up to three chunks of about
    W/3 columns.  Its last op, and blocks left without a pop, go right
    after the last group, or to `start` if no step follows it."""
    groups = []
    for c in range(0, width, n_layers):
        main = tuple((i, max(0, c - n_layers + i + 1), min(c + i + 1, width))
                     for i in range(n_layers))
        tail = tuple((i, hi, width) for i, _, hi in main if c + n_layers >= width > hi)
        groups.append((main, tail))
    last = n_layers * (len(groups) - 1)
    pops = [c for c in range(last) if c % n_layers]
    blocks = range(n_layers - 1, 0, -1)
    rows = []
    for burst in (False, row_pair):
        ahead = [None] * (width - 1) + [()]
        for c, i in zip(pops, blocks):
            ahead[c] = ((i, 0, width),)
        free, lo = pops[len(blocks):], 0
        for j in (1, 2) if burst else ():
            hi = round(j * width / 3)
            c = next((c for c in free if c > n_layers * ((hi - 1) // n_layers)), None)
            if hi > lo and c is not None:
                ahead[c], free, lo = ((0, lo, hi),), [f for f in free if f > c], hi
        start = (*((i, 0, width) for i in blocks[len(pops):]), (0, lo, width))
        if last + 1 < width:
            ahead[last + 1], start = start, ()
        rows.append((tuple(ahead), start))
    return tuple(groups), tuple(rows)


def _bind_groups(spec: ImageSpec, state: ImageGenState) -> tuple:
    """`_schedule` over this state's buffers: per group its block ops, head
    Column, pixels' place in block 0's history and ops after the head.  An
    op is (block, windows, Column taps, vertical rows, Column link rows,
    Column, dot output, dest), where windows, vertical rows and the pixels'
    place are per ring slot, so row r reads item r % slots; scratch is
    shared by equal shapes: each is written just before it is read."""
    C, B, hk, n, W = spec.channels, state.batch, spec.h_kw, spec.n_layers, spec.width
    image = state.row_caches[0]
    buf, (row, step) = state.buf, state.buf.strides
    s_slot, s_ch, s_col = image.ring.strides
    history = [np.ndarray((hk, 1, W * B), DTYPE, image.ring, k * s_slot + (image.pad - hk) * B * s_col,
                          (B * s_col, s_ch, s_col)) for k in range(image.slots)]
    windows = [np.ndarray((hk, C, W * B), DTYPE, buf, a * row, (B * step, row, step))
               for a in range(0, (n - 1) * C, C)]
    inputs = [buf[a : a + C, hk * B :] for a in range(0, (n - 1) * C, C)]  # after the zero columns
    out = cache(lambda m: np.empty((C, m), DTYPE))
    heads = cache(lambda m: Column(np.ones((C + 1, m), DTYPE), C))

    @cache
    def column(k, m):  # [h_kw taps of k channels; the C-channel vertical row; 1]
        col = Column(np.ones((hk * k + C + 1, m * B), DTYPE), k)
        return col, col.buf[: hk * k].reshape(hk, k, m * B), col.buf[hk * k : -1].reshape(C, m, B)

    def op(i, lo, hi, head):
        a, b = lo * B, hi * B
        col, taps, link = column(1 if i == 0 else C, hi - lo)
        window = [windows[i - 1][:, :, a:b]] * image.slots if i else [h[:, :, a:b] for h in history]
        dest = inputs[i][:, a:b] if i < n - 1 else head.buf[:-1]
        return (i, tuple(window), taps, tuple(state.outputs(i)[:, :, lo:hi]), link, col, out(b - a),
                dest)

    def group(main, tail):
        _, c, end = main[-1]  # the head's pixels
        head = heads((end - c) * B)
        return ([op(*r, head) for r in main], head, [y.reshape(1, -1) for y in image.body[:, :, c:end]],
                [op(*r, head) for r in tail])

    return tuple(group(*g) for g in _schedule(W, n, spec.row_pair)[0])


def _horizontal(blocks, ops, k: int, counter: OpCounter) -> None:
    """Each op's block node over its columns, for ring slot k: the horizontal
    conv and the link as one dot of `folded`, then a tanh into the next
    block's input."""
    for i, windows, taps, vrows, link, column, out, dest in ops:
        taps[...] = windows[k]
        link[...] = vrows[k]
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
        k = state.r % len(state.last)
        _horizontal(network.blocks, ops, k, state.counter)
        y = conv1d_point(network.proj, head, state.counter)
        y_dest[k][...] = y
        state.pending.extend(y.reshape(-1, 1, state.batch))
        _horizontal(network.blocks, tail, k, state.counter)
    if todo is not None:
        if state.r + 1 < network.spec.height:  # nothing below the last row
            for op in todo:
                _vertical(network, state, op, state.r + 1)
        if c + 1 == network.spec.width:  # the row's end
            state.r, state.ahead, c = state.r + 1, None, -1
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
        img = np.asarray(image)
        real = img.dtype.kind != "c"  # a cast would drop the imaginary part
        img = img.astype(np.float64) if real else img
    except (TypeError, ValueError):
        raise InvalidParameterError("expected a numeric 2D image") from None
    if not real:
        raise InvalidParameterError("expected a real image, got complex values")
    if img.ndim != 2 or img.size == 0 or not np.isfinite(img).all():
        raise InvalidParameterError(f"expected a non-empty finite 2D image, got shape {img.shape}")
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    quant = np.clip((img - lo) * scale, 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + quant.tobytes())
