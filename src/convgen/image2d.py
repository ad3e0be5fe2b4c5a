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

The cached engine generates rows in pairs (2j, 2j+1) and computes the next
pair's vertical rows on row 2j+1 into the `RowCache` rings that read them.
Wavefront groups: y_c reads only pixels <= c - n (n = `n_layers`), so one
group computes y_c .. y_{c+n-1}, each block one `conv1d_point` of
`ImageBlock.folded` over its columns of both rows; later steps pop the
queued pixels.  With the pair, block 0's vertical rows 2j and 2j+1 come
from down row j, which reads image rows <= 2j-1, so row 2j+1's groups run
with row 2j's; without it, block 0's row 2j+1 reads row 2j up to its column
and follows row 2j's groups in chunks, row 2j+1's groups a group behind.
A vertical chunk passes its output row to the ring it reads, so `done` alone
records each block's rows; `_vconv_row` and `_PairState` are names only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .cache import RowCache
from .dilated import _check_int_fields, _check_weights, _family, draw_uniform
from .errors import InvalidParameterError, ScheduleViolationError
from .tensor import (
    DTYPE,
    Column,
    ConvWeights,
    OpCounter,
    _check_int,
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
    def down_interleaved(self) -> ConvWeights:
        """The down node over [v_{2j-1}; v_{2j}; 1] with its rows (channel,
        tap)-interleaved, one channel of 2C taps: built on first use."""
        c = self.down.out_channels
        return ConvWeights(self.down.kernel.reshape(c, 1, 2 * c), self.down.bias)

    def __reduce__(self):  # copies and pickles carry the fields, not the cached weights
        return ImageBlock, (self.vert, self.horiz, self.link, self.down, self.up)


@dataclass(frozen=True)
class ImageNetwork:
    spec: ImageSpec
    blocks: tuple[ImageBlock, ...]
    proj: ConvWeights

    def __hash__(self):
        return hash(self.spec)  # equal networks have equal specs

    @property
    def period(self) -> int:  # a row pair's compiled steps, with or without the pair
        return 2 * self.spec.width

    @property
    def length(self) -> int:  # an image's raster steps
        return self.spec.height * self.spec.width

    def forward(self, inputs: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
        return forward_image(self, inputs, counter)


# What an image network may ask for, far above any shape in use (perfbench's
# 32x32, C=8, 3 blocks with the row pair: 4424 cached state floats and 176128
# naive floats per batch element, a 64-step schedule); its weights count
# against `dilated.MAX_WEIGHT_FLOATS`.
MAX_STATE_FLOATS = 2**26  # a cached state's floats per batch element: 256 MiB
MAX_NAIVE_FLOATS = 2**26  # the naive pass's floats per batch element, a bound
MAX_SCHEDULE_STEPS = 2**15  # a row pair's compiled steps, 2W: 20 MB of `_schedule`
# What the module's caches keep: a geometry's `_schedule` (about 600 bytes
# per column) and, per batch size, the `_layout` of each of its groups (about
# 5 KB each; perfbench's 32x32 image has 13 groups).  `_schedule` drops the
# least recently used, `_layout` the oldest.
MAX_SCHEDULES = 8  # `_schedule` results
MAX_LAYOUTS = 256  # `_layout` results, over every geometry and batch size


def _sizes(spec: ImageSpec) -> tuple:
    """(weight floats, cached state floats per batch element, a bound on the
    naive pass's floats per batch element, schedule steps), in closed form.

    The weights are each block's vertical and horizontal convs, its link and,
    with the pair, block 0's down and up convs, then the head.  The state is
    what `image_incremental_init` allocates: the image ring, the rings of
    blocks 1.., `last` and `buf`.  The naive pass holds the image and at most
    16 (C, H, W) maps at once, each counted with its widest padding (about 8
    were live at once under tracemalloc)."""
    H, W, C, n, kh, kw, hk = (spec.height, spec.width, spec.channels, spec.n_layers, spec.kh,
                              spec.kw, spec.h_kw)
    weights = (C * (kh * kw + 1) + C * (hk + 1)  # block 0 reads one channel
               + (n - 1) * (C * (C * kh * kw + 1) + C * (C * hk + 1))
               + n * C * (C + 1) + 2 * C * (2 * C + 1) * spec.row_pair + C + 1)
    slots = kh + 2 + kh % 2
    state = (slots * (max(kw - 1, hk) + W) + slots * C * W
             + (n - 1) * C * (slots * (kw - 1 + W) + 2 * (hk + W)))
    naive = H * W + 16 * C * (H + 2 * kh) * (W + 2 * max(kw, hk))
    return weights, state, naive, 2 * W


def build_image_network(spec: ImageSpec) -> ImageNetwork:
    """Draw an image network's weights.  A spec whose weights, cached state,
    naive pass or schedule (`_sizes`) would exceed its ceiling is refused with
    InvalidParameterError before anything is drawn."""
    _family("build_image_network", spec, "image2d")
    weights, *sizes = _sizes(spec)
    _check_weights(spec, weights)
    for what, size, ceiling in zip(
            ("cached state floats per batch element", "naive floats per batch element",
             "schedule steps"), sizes, (MAX_STATE_FLOATS, MAX_NAIVE_FLOATS, MAX_SCHEDULE_STEPS)):
        if size > ceiling:
            raise InvalidParameterError(
                f"image network too large: {spec.height}x{spec.width} C={spec.channels} "
                f"{spec.n_layers} blocks needs more than {ceiling} {what}")
    c, n, pair = spec.channels, spec.n_layers, spec.row_pair
    shapes = []  # per block: vert, [down, up,] link (no bias drawn), horiz; then the head
    for i in range(n):
        in_ch = 1 if i == 0 else c
        shapes.append((c, in_ch, (spec.kh, spec.kw), True))
        if pair and i == 0:
            shapes += [(c, c, (2,), True)] * 2
        shapes += [(c, c, (1,), False), (c, in_ch, (1, spec.h_kw), True)]
    weights = iter(draw_uniform(np.random.default_rng(spec.seed), shapes + [(1, c, (1,), True)]))
    blocks = []
    for i in range(n):
        vert = next(weights)
        down, up = (next(weights), next(weights)) if pair and i == 0 else (None, None)
        link, horiz = next(weights), next(weights)
        blocks.append(ImageBlock(vert=vert, horiz=horiz, link=link, down=down, up=up))
    return ImageNetwork(spec, tuple(blocks), next(weights))


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
    _family("forward_image", network, "image2d")
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


def _no_input(xs) -> None:  # an image reads its own last pixel
    if xs is not None:
        raise InvalidParameterError("image2d engines take no input, so xs must be None")


def image_naive_step(network: ImageNetwork, state: ImageNaiveState, xs=None) -> np.ndarray:
    """Predict the next raster pixel of every batch element with a full forward pass: (batch,)."""
    _no_input(xs)
    r, c = divmod(state.t, network.spec.width)
    if r == network.spec.height:
        raise ScheduleViolationError("image already complete")
    y = forward_image(network, state.image, state.counter)[0, r, c, :]
    state.image[0, r, c, :] = y
    state.t += 1
    return y


# ---------------------------------------------------------------------------
# cached engine
# ---------------------------------------------------------------------------


class _PairState:
    """A name only, never built: a state knows the row pair from its
    `row_pair` bool, and each burst recomputes the odd row above it from the
    image ring, so no row is carried.  perfbench's tracer patches `feed`."""

    __slots__ = ()

    def feed(self, *args) -> None:  # a name only: the row pair carries no row to feed
        raise ScheduleViolationError("the row pair carries no row to feed")


@dataclass(eq=False)
class ImageGenState:
    """All mutable state of one cached 2D run.  `row_caches[i]` holds block
    i's vertical conv input (image rows, their slots block 0's history; or
    block i-1's vertical rows), `last` the last block's, row t in slot t %
    slots (kh + 2, rounded up to even; a burst reads kh + 1 image rows);
    `row_pair` is the spec's; `buf[t % 2]` blocks 1 .. n-1's histories in
    row t (h_kw zeros, then W); `queues[k]` row r+k's pixels computed ahead;
    `done[i]` the raster position block i's vertical rows reach (no ring
    keeps a row cursor of its own).  `groups` (views) and `scratch` fill on
    first use."""

    row_caches: list
    last: np.ndarray
    row_pair: bool
    buf: np.ndarray
    queues: list
    done: list
    r: int
    c: int
    batch: int
    counter: OpCounter
    ahead: tuple | None = None

    def __post_init__(self):  # views of its own buffers: copies and pickles build their own
        self.groups, self.scratch = {}, {}

    def __reduce__(self):
        return ImageGenState, tuple(getattr(self, f.name) for f in fields(self))

    def outputs(self, i: int) -> np.ndarray:
        """Block i's vertical rows, (slots, C, W, B)."""
        return self.row_caches[i + 1].body if i + 1 < len(self.row_caches) else self.last

    def cached_rows_values(self) -> int:
        """The kh rows of every cache (kh + 1 image rows with the pair), the rows
        written ahead of their reader (block i+1's window; the current row)
        and the queues."""
        caches, W = self.row_caches, self.row_caches[0].width
        total = sum(rc.stored_values() for rc in caches) + self.batch * sum(map(len, self.queues))
        written = [-(-d // W) for d in self.done]  # rows begun in each block's output
        if self.row_pair:
            total += W * self.batch
            written[0] += self.done[0] % W > 0  # a burst writes two rows
        readers = [d // W for d in self.done[1:]] + [self.r + 1]  # each reader's next row
        return total + self.last[0].size * sum(max(0, w - r) for w, r in zip(written, readers))


def _vconv_row(*args) -> np.ndarray:  # a name only: perfbench's tracer patches it
    raise ScheduleViolationError("the engine runs vertical rows in chunks, not whole rows")


def image_incremental_init(
    network: ImageNetwork, batch: int = 1, counter: OpCounter | None = None
) -> ImageGenState:
    batch = _check_int("batch", batch, 1)
    spec = network.spec
    c, W, n, slots = spec.channels, spec.width, spec.n_layers, spec.kh + 2 + spec.kh % 2
    image = RowCache(spec.kh, W, 1, batch, spec.kw, slots, max(spec.kw - 1, spec.h_kw))
    return ImageGenState(
        row_caches=[image, *(RowCache(spec.kh, W, c, batch, spec.kw, slots, spec.kw - 1)
                             for _ in range(n - 1))],
        last=zeros((slots, c, W, batch)),
        row_pair=spec.row_pair,
        buf=zeros((2, (n - 1) * c, (spec.h_kw + W) * batch)),
        queues=[deque(), deque(), deque()], done=[0] * n, r=0, c=0, batch=batch,
        counter=counter or OpCounter(),
    )


def _burst(network: ImageNetwork, state: ImageGenState, lo: int, hi: int, row: int) -> None:
    """Block 0's burst row `row`, columns lo .. hi-1, one `conv1d_point` per
    node: the vconv of rows `row - 1` (zero padding at -1) and `row` over
    image windows a row apart (the image ring's column of those two output
    rows), written (channel, tap)-interleaved into the down node's column,
    the down node and the two up phases, rows `row`, `row + 1` in adjacent
    slots, so one tanh writes both."""
    block = network.blocks[0]
    try:
        down, vconv, up, outs, out, dests = state.scratch[0, lo, hi]
    except KeyError:
        C, B, rows = network.spec.channels, state.batch, state.outputs(0)
        m = (hi - lo) * B
        down, out = Column(np.ones((2 * C + 1, m), DTYPE), 1), np.empty((2, C, m), DTYPE)
        down, vconv, up, outs, out, dests = state.scratch[0, lo, hi] = (
            down, down.buf[:-1].reshape(C, 2 * m), Column(np.ones((C + 1, m), DTYPE), C), tuple(out), out,
            [rows[s : s + 2, :, lo:hi].reshape(2, C, m) for s in range(0, len(rows), 2)])
    counter, (up0, up1) = state.counter, block.up.phases
    conv1d_point(block.vert, state.row_caches[0].column(row, lo, hi, 2), counter, vconv)
    np.tanh(vconv, vconv)
    if row == 0:
        vconv[:, : vconv.shape[1] // 2] = 0
    np.tanh(conv1d_point(block.down_interleaved, down, counter, up[0]), up[0])
    conv1d_point(up0, up, counter, outs[0])
    conv1d_point(up1, up, counter, outs[1])
    np.tanh(out, dests[row % (2 * len(dests)) // 2])


def _pixels_ready(state: ImageGenState, row: int, hi: int) -> bool:
    """Whether image row `row` has `hi` pixels written, every row above all."""
    return row < state.r or row == state.r and state.c + len(state.queues[0]) >= hi


def _vertical(network: ImageNetwork, state: ImageGenState, op: tuple, base: int) -> None:
    """Op (i, t, lo, hi): block i's vertical nodes of row base + t, columns lo
    .. hi-1 (with the pair block 0's rows come in bursts of even rows), in
    order and over rows or pixels already written, else raise.  The row is
    passed to the ring's `column`; `done[i]` alone records the progress."""
    i, t, lo, hi = op
    t += base
    spec, done, W = network.spec, state.done, network.spec.width
    if t >= spec.height:
        return
    burst = i == 0 and state.row_pair
    ready = done[i - 1] >= (t - 1) * W + hi if i else _pixels_ready(state, t - 1, hi)
    if not ready or done[i] != t * W + lo:
        raise ScheduleViolationError(
            f"vertical row {t} of block {i}, columns {lo}..{hi - 1}, out of order")
    cache = state.row_caches[i]
    if burst:
        _burst(network, state, lo, hi, t)
    else:
        try:
            out, dests = state.scratch[i, lo, hi]
        except KeyError:  # the dot's output: ring slots are not C-contiguous
            C = spec.channels
            out, dests = state.scratch[i, lo, hi] = (
                np.empty((C, (hi - lo) * state.batch), DTYPE),
                [row[:, lo:hi].reshape(C, -1) for row in state.outputs(i)])
        conv1d_point(network.blocks[i].vert, cache.column(t, lo, hi), state.counter, out)
        np.tanh(out, dests[t % len(dests)])
    done[i] = t * W + hi if hi < W else (t + 1 + burst) * W


def vertical_row_pass(network: ImageNetwork, state: ImageGenState, row_index: int) -> list:
    """Start a row, exactly once: on a pair's first row run what `_schedule`
    leaves to it (row 0: the first pair's), raise if a vertical row of the
    pair is missing (but block 0's row 2j+1 without the pair), and return
    every block's row `row_index`, views of the slots its groups read."""
    if row_index != state.r or state.c != 0 or state.ahead is not None:
        raise ScheduleViolationError(
            f"vertical_row_pass(row={row_index}) out of order at (r={state.r}, c={state.c})")
    spec = network.spec
    if row_index == spec.height:
        raise ScheduleViolationError("image already complete")
    W = spec.width
    _, steps, start, late = _schedule(W, spec.n_layers, spec.row_pair)
    _run(network, state, () if row_index % 2 else late if row_index else start,
         max(0, row_index - 2))
    done, need = state.done, (row_index + 1) * W
    second = row_index % 2 == 0 and row_index + 1 < spec.height
    if min(done) < need or second and min(done[not spec.row_pair :], default=need + W) < need + W:
        raise ScheduleViolationError(f"vertical rows of row {row_index} not all computed")
    state.ahead = steps[2 if row_index + 1 == spec.height and row_index % 2 == 0 else row_index % 2]
    slot = row_index % len(state.last)
    return [rc.body[slot] for rc in state.row_caches[1:]] + [state.last[slot]]


@lru_cache(maxsize=MAX_SCHEDULES)
def _schedule(width: int, n_layers: int, row_pair: bool) -> tuple:
    """A row pair's steps: (groups, steps, start, late).  A group is per
    block its columns (d, lo, hi) of rows 2j+d, then the head.  steps[d][c]
    (steps[2]: an odd height's last row) is None or items: group indices and
    vertical ops (i, t, lo, hi), block i's columns lo .. hi-1 of row 2j+t.
    Row 2j's group from pixel c (block i over c-n+i+1 .. c+i, the last to the
    row's end) runs at step c with row 2j+1's from c - lag (lag 0 with the
    pair, else n) if as wide, else that runs alone on the next free step; the
    groups from n run apart, those from 0 on the previous pair.  Without the
    pair block 0's row 2j+1 runs in chunks right after row 2j's groups.  Row
    2j+1's free steps but its first take the next pair's work, one item each:
    block 0's row 2j+2 (a burst in three chunks), blocks 1 .. n-1's rows
    2j+2 and 2j+3, its first group; the rest is `late`.  That group writes
    over row 2j-1, which a burst reads, but needs the whole burst's rows."""
    n, W = n_layers, width

    def cols(d, c):  # row d's group from pixel c: (d, lo, hi) per block
        return [(d, max(0, c - n + i + 1), W if c + n >= W else c + i + 1) for i in range(n)]

    def group(*rows):  # a group over rows (d, c), its index
        groups.append(tuple(zip(*(cols(d, c) for d, c in rows))))
        return len(groups) - 1

    width_of = lambda c: [hi - lo for _, lo, hi in cols(0, c)]
    lead, lag = range(0, W, n), 0 if row_pair else n
    fused = {c for c in lead if c - lag in lead and width_of(c) == width_of(c - lag)}
    fused.discard(n if n > 1 else None)  # the pair's first group step carries one row
    groups, steps, p = [], [[] for _ in range(2 * W)], -1
    first, after = (group((d, 0), *[(d + 1, 0)] * (0 in fused)) for d in (0, 2))
    for c in lead[1:]:
        steps[c].append(group((0, c), *[(1, c - lag)] * (c in fused)))
    for c in lead:  # row 2j+1's groups that run alone
        p = c + lag if c + lag in fused else next(
            q for q in range(max(p, c) + 1, 2 * W) if q >= W or q % n)
        if c + lag not in fused:
            steps[p].append(group((1, c)))
    for c in lead[: W * (not row_pair)]:  # on the next step, before its items, or the row's last
        p = min(c + 1, W - 1)
        steps[p].insert(0 if p > c else len(steps[p]), (0, 1, c, min(c + n, W)))
    cuts = sorted({0, W, *(round(j * W / 3) for j in (1, 2) if row_pair)})
    work = [(0, 2, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    work += [*((i, t, 0, W) for t in (2, 3) for i in range(1, n)), after]
    free = [p for p in range(W + 1, 2 * W) if not steps[p]]
    spots = free if len(free) >= len(work) else range(W, 2 * W)
    for p, item in zip(spots, work):
        steps[p].append(item)
    if not row_pair:  # an odd height's last row, alone
        steps += [[group((0, c))] if c in lead[1:] else [] for c in range(W)]
    rows = tuple(tuple(tuple(s) if s or c == W - 1 else None
                       for c, s in enumerate(steps[a : a + W])) for a in range(0, len(steps), W))
    start = ((0, 0, 0, W), *((i, t, 0, W) for t in (0, 1) for i in range(1, n)), first)
    return tuple(groups), rows, start, tuple(work[len(spots):])


_LAYOUTS: dict = {}  # (geometry, batch, group) -> `_layout`, at most MAX_LAYOUTS


def _geometry(spec: ImageSpec) -> tuple:
    """Every field of `spec` but its seed: what a group's layout depends on."""
    return (spec.height, spec.width, spec.channels, spec.n_layers, spec.kh, spec.kw,
            spec.h_kw, spec.row_pair)


def _layout(spec: ImageSpec, state: ImageGenState, g: int) -> tuple:
    """Group g of `_schedule` as places in a state's buffers (block i's ring,
    `last`, `buf`), once per (spec, batch), so that a fresh or forked state
    only builds the views (`_bind`): its first row, ops (block, input
    channels, columns, two rows?, windows, vertical rows, dest or None for
    the head's column), head columns, pixels, queues (row d, pixels a .. b-1)
    and the raster position its vertical rows must reach.  A view is
    (buffer, shape, (offset, strides) per pair of ring slots, repeats).
    The key is the spec's geometry, not the spec: networks that differ only
    in their seed share their layouts."""
    C, B, hk, n = spec.channels, state.batch, spec.h_kw, spec.n_layers
    main = _schedule(spec.width, n, spec.row_pair)[0][g]
    key = (_geometry(spec), B, main)
    if key in _LAYOUTS:
        return _LAYOUTS[key]
    bufs = [*(rc.ring for rc in state.row_caches), state.last, state.buf]
    image, f = state.row_caches[0], bufs[-1].itemsize  # every buffer's column stride
    slots = image.slots

    def view(parts, b, shape, strides, ch=0, pad=0):
        """The parts' (*shape, width) view of buffer b, a ring of slots or
        `buf`, from channel offset ch and column pad, per pair of slots."""
        ring, (d, lo, hi), base = b <= n, parts[0], bufs[b]
        at = []
        for q in range(0, slots, 2) if ring else (0,):
            o = [((q + e) % slots if ring else e % 2) * base.strides[0] + ch + (pad + a) * B * f
                 for e, a, _ in parts]
            at.append((o[0], (*strides[:-1], *(x - o[0] for x in o[1:]), f)))
        return b, (*shape, *[2][: len(parts) - 1], (hi - lo) * B), tuple(at), slots // 2 // len(at)

    def op(i, parts):
        k, b_ch = 1 if i == 0 else C, bufs[-1].strides[1]
        if i == 0:  # its input: the image, h_kw columns left of each output column
            windows = view(parts, 0, (hk, 1), (B * f, image.ring.strides[1], f), pad=image.pad - hk)
        else:
            windows = view(parts, n + 1, (hk, C), (B * f, b_ch, f), ch=(i - 1) * C * b_ch)
        vrows = view(parts, i + 1, (C,), (bufs[i + 1].strides[1], f),
                     pad=spec.kw - 1 if i < n - 1 else 0)
        dest = view(parts, n + 1, (C,), (b_ch, f), ch=i * C * b_ch, pad=hk) if i < n - 1 else None
        return i, k, sum(hi - lo for _, lo, hi in parts) * B, len(parts) == 2, windows, vrows, dest

    px = main[-1]  # the head's pixels
    ends = [0, *accumulate(hi - lo for _, lo, hi in px)]
    if len(_LAYOUTS) >= MAX_LAYOUTS:
        _LAYOUTS.pop(next(iter(_LAYOUTS)), None)  # the oldest
    _LAYOUTS[key] = layout = (
        px[0][0], tuple(op(i, parts) for i, parts in enumerate(main)), ends[-1] * B,
        view(px, 0, (1,), (image.ring.strides[1], f), pad=image.pad),
        tuple((d, a, b) for (d, _, _), a, b in zip(px, ends, ends[1:])),
        max(d * spec.width + hi for parts in main for d, _, hi in parts))
    return layout


def _bind(spec: ImageSpec, state: ImageGenState, g: int) -> tuple:
    """Group g's `_layout` over this state's buffers: its first row, ops
    (block, windows, Column taps, vertical rows, Column link rows, Column,
    dot output, tanh source, dest), head, pixels and their shape, queues
    and the raster position; each node's [h_kw taps of k channels; vertical
    row; 1] and dot output (the head's: k = 0) shared by shapes in `scratch`."""
    C, hk, scratch = spec.channels, spec.h_kw, state.scratch
    bufs = [*(rc.ring for rc in state.row_caches), state.last, state.buf]
    first, ops, m_head, y_dest, queues, need = _layout(spec, state, g)

    def views(b, shape, at, repeats):
        return [np.ndarray(shape, DTYPE, bufs[b], o, s) for o, s in at] * repeats

    def shared(k, m):
        if (k, m) not in scratch:
            col = Column(np.ones((hk * k + C + 1, m), DTYPE), k or C)
            scratch[k, m] = (col, col.buf[: hk * k].reshape(hk, k, m), col.buf[hk * k : -1],
                             np.empty((C, m), DTYPE))
        return scratch[k, m]

    head = shared(0, m_head)[0]
    bound = []
    for i, k, m, two, windows, vrows, dest in ops:
        col, taps, link, out = shared(k, m)
        split = (lambda x: x.reshape(*x.shape[:-1], 2, -1)) if two else (lambda x: x)
        src, dest = (out, head.buf[:-1]) if dest is None else (split(out), views(*dest)[0])
        bound.append((i, views(*windows), split(taps), views(*vrows), split(link), col, out,
                      src, dest))
    y_dest = views(*y_dest)
    return first, bound, head, y_dest, y_dest[0].shape, queues, need


def _group(network: ImageNetwork, state: ImageGenState, g: int, base: int) -> None:
    """Group g of `_schedule` for the pair from row `base`: each block's node
    (horizontal conv and link, one dot, a tanh into the next block's
    input), the head, its pixels into the image ring and the queues."""
    spec, counter = network.spec, state.counter
    if g not in state.groups:
        state.groups[g] = _bind(spec, state, g)
    first, ops, head, y_dest, shape, queues, need = state.groups[g]
    if base + first >= spec.height:  # below the image
        return
    if min(state.done) < base * spec.width + need:
        raise ScheduleViolationError(f"a group of rows from {base} before its vertical rows")
    k = base % len(state.last) >> 1  # the pair of ring slots
    for i, windows, taps, vrows, link, column, out, src, dest in ops:
        taps[...] = windows[k]
        link[...] = vrows[k]
        conv1d_point(network.blocks[i].folded, column, counter, out)  # [W_h taps | W_link | b]
        np.tanh(src, dest)  # ufunc out positional: numpy parses it faster
    y = conv1d_point(network.proj, head, counter)
    y_dest[k][...] = y.reshape(shape)
    items = list(y.reshape(-1, 1, state.batch))
    for d, a, b in queues:
        state.queues[base + d - state.r].extend(items[a:b])


def _run(network: ImageNetwork, state: ImageGenState, items, base: int) -> None:
    """`_schedule` items for the pair from row `base`: groups and vertical ops."""
    for item in items:
        if type(item) is int:
            _group(network, state, item, base)
        else:
            _vertical(network, state, item, base)


def _pixel_step(network: ImageNetwork, state: ImageGenState) -> np.ndarray:
    c = state.c
    try:
        todo = state.ahead[c]
    except TypeError:  # ahead is None until the row's vertical_row_pass
        raise ScheduleViolationError("pixel step before vertical_row_pass") from None
    queue = state.queues[0]
    if todo is not None:
        _run(network, state, todo, state.r - state.r % 2)
        if c + 1 == network.spec.width:  # the row's end: the next row's queue is first
            state.r, state.ahead, c = state.r + 1, None, -1
            state.queues.append(state.queues.pop(0))
    state.c = c + 1
    try:
        return queue.popleft()
    except IndexError:
        raise ScheduleViolationError("a pixel step before its group") from None


def image_incremental_step(network: ImageNetwork, state: ImageGenState, xs=None) -> np.ndarray:
    """Generate the next raster pixel of every batch element: (batch,); a
    row's first also runs its `vertical_row_pass`, which raises at the end."""
    _no_input(xs)
    if state.c == 0:
        vertical_row_pass(network, state, state.r)
    return _pixel_step(network, state)[0]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def receptive_field_2d(spec: ImageSpec) -> tuple[int, int]:
    """Bounding box (rows, cols) of image positions that can influence one pixel.

    Computed by interval propagation over the stream chain (worst case over
    row parity for the strided pair), clipped to the image.  With the pair,
    row 2j+1 reads nothing of row 2j (both take block 0's vertical features
    from down row j, which reads rows <= 2j-1); without it, it does.
    """
    _family("receptive_field_2d", spec, "image2d")
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
