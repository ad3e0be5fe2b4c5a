"""1D dilated-stack autoregressive models and their two generation engines.

The network family: `stacks` repeats of L two-tap causal conv layers with
dilations 1, 2, 4, ... 2^(L-1), every one tanh, and a final linear 1x1
projection to one channel.  Generation is deterministic: the raw output
scalar is fed back as the next input, which makes the naive and cached
engines exactly comparable.

naive engine   - keeps each stack's last 2^L inputs and recomputes the
                 stack's whole pyramid from them at every step: one stacked
                 gemv per level over its nodes at or after step 0.
cached engine  - column-resident, for n = stacks * L layers: the state is
                 one zero-filled (sum of dilations, C) ring in which each of
                 layers 1..n-1 owns `dilation` consecutive rows, plus layer
                 0's width-1 ring (the previous input).  Row t % dilation of
                 a layer holds its input from `dilation` steps ago.  A step
                 looks its phase's ring rows up in a precomputed table,
                 gathers every layer's old tap into the old-tap half of a
                 preallocated (n-1, 2C+1) column matrix with one `take`,
                 runs each layer as one `conv1d_point` over its row (a
                 `Column`) writing straight into the next layer's new-tap
                 half, applies tanh in place, and scatters the new-tap half
                 back into the ring with one `put`.  Gather and scatter move
                 whole rows, each one `np.void` record of 4C bytes, between
                 record views of the ring and of the two halves.  The last
                 layer writes into the head's [h; 1] column.  The kernels
                 get no counter: the step adds its fixed totals once.

A network fixes the size of a state's rings once, when it is built
(`ring_shape`, `ring0_size`), as `_ring_rows` fixes the ring-row table once
per dilation list, so `incremental_init` is two zeroed allocations and no
per-layer loop.  The column matrix carries nothing from one step to the
next, so it is a workspace: one per network and per thread
(`threading.local`), built with its `Column`s and ring-row table on a
thread's first step with that network.  That keeps a network shareable
across threads and `init` as cheap as allocating the rings.  The workspace
holds (n-1)*(2C+1) + C + 5 floats and shares a table of period x (n-1)
ring-row indices, where the period is the lcm of the dilations of layers
1..n-1, here the largest of them; at stacks 2, L=10 that is 512 x 19 8-byte
indices, about 78 KB, held once per dilation list.  `cached_values` (and so
`state_bytes`) counts neither.

Both engines run every node as the same gemv, so their outputs are bit-identical.
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import groupby

import numpy as np

from .errors import InvalidParameterError, ShapeError
from .tensor import (
    DTYPE,
    Column,
    ConvWeights,
    OpCounter,
    _check_int,
    _frozen,
    _stacked_point,
    conv1d_full,
    conv1d_point,
    zeros,
)

FAMILIES = ("dilated", "strided")
JSON_KEYS = ("family", "stacks", "layers", "kernel", "channels", "strides", "seed")


def _family(what: str, obj, *families: str) -> str:
    """The family of `obj`, a spec or a network (through its `spec`), if it
    is one of `families`; otherwise InvalidParameterError naming it."""
    family = getattr(getattr(obj, "spec", obj), "family", None)
    if family not in families:
        raise InvalidParameterError(
            f"{what} takes the {' or '.join(families)} family, got {type(obj).__name__} "
            f"of family {family!r}")
    return family


def _check_int_fields(spec, **minimums) -> None:
    """Check each named integer field of a frozen spec and store it as an int."""
    for name, lo in minimums.items():
        object.__setattr__(spec, name, _check_int(name, getattr(spec, name), lo))


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative, fully deterministic description of a 1D layer stack.

    (spec, seed) pins every weight; building the same spec twice yields
    bit-identical networks.
    """

    family: str
    stacks: int = 1
    layers_per_stack: int = 1
    kernel_size: int = 2
    channels: int = 1
    strides: tuple[str, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(f"unknown family {self.family!r}")
        _check_int_fields(
            self, stacks=1, layers_per_stack=1, kernel_size=1, channels=1, seed=0
        )
        if self.strides is not None:
            if (
                isinstance(self.strides, str)
                or not isinstance(self.strides, Sequence)
                or not all(isinstance(s, str) for s in self.strides)
            ):
                raise InvalidParameterError(
                    f"strides must be a sequence of strings, got {self.strides!r}"
                )
            object.__setattr__(self, "strides", tuple(self.strides) or None)
        if self.family == "dilated" and self.kernel_size != 2:
            raise InvalidParameterError("the dilated family uses two-tap kernels")
        if self.family == "dilated" and self.strides:
            raise InvalidParameterError("the dilated family takes no strides")
        if self.family == "strided" and not self.strides:
            raise InvalidParameterError("strided family requires a strides list")
        if self.family == "strided" and (self.stacks, self.layers_per_stack) != (1, 1):
            raise InvalidParameterError("the strided family takes no stacks or layers_per_stack")

    def dilations(self) -> list[int]:
        """Per-layer dilations, input to output: 2^i within each stack."""
        if self.family != "dilated":
            raise InvalidParameterError("dilations are defined for the dilated family")
        per_stack = [2**i for i in range(self.layers_per_stack)]
        return per_stack * self.stacks

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "stacks": self.stacks,
                "layers": self.layers_per_stack,
                "kernel": self.kernel_size,
                "channels": self.channels,
                "strides": list(self.strides) if self.strides else None,
                "seed": self.seed,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "NetworkSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"NetworkSpec JSON does not parse: {exc}") from None
        if not isinstance(doc, dict) or "family" not in doc:
            raise InvalidParameterError("NetworkSpec JSON must be an object with a family key")
        unknown = sorted(set(doc) - set(JSON_KEYS))
        if unknown:
            raise InvalidParameterError(f"unknown NetworkSpec key(s): {', '.join(unknown)}")
        return cls(
            family=doc["family"],
            stacks=doc.get("stacks", 1),
            layers_per_stack=doc.get("layers", 1),
            kernel_size=doc.get("kernel", 2),
            channels=doc.get("channels", 1),
            strides=doc.get("strides"),
            seed=doc.get("seed", 0),
        )


@dataclass(frozen=True)
class LayerDef:
    weights: ConvWeights  # every layer is tanh
    dilation: int


@dataclass(frozen=True)
class DilatedNetwork:
    """Immutable weights for a dilated stack; shareable across threads.

    `ring_shape` and `ring0_size` size a cached state's rings (`GenState`),
    fixed here once per network so that `incremental_init` only allocates.
    The cached engine's per-thread column workspace hangs off `_local`; it is
    not part of the network's value, so it is neither compared nor copied:
    a copy or a pickle is rebuilt through the constructor (`__reduce__`) and
    builds its own on first use.
    """

    spec: NetworkSpec
    layers: tuple[LayerDef, ...]
    head: ConvWeights
    _local: threading.local = field(
        init=False, repr=False, compare=False, default_factory=threading.local
    )
    ring_shape: tuple[int, int] = field(init=False, repr=False, compare=False)
    ring0_size: int = field(init=False, repr=False, compare=False)
    period = 1  # every step computes the same nodes
    length = None  # a sequence has no end

    def __post_init__(self):
        rows = sum(layer.dilation for layer in self.layers[1:])
        object.__setattr__(self, "ring_shape", (rows, self.spec.channels))
        object.__setattr__(self, "ring0_size", self.layers[0].dilation)

    def __reduce__(self):
        return DilatedNetwork, (self.spec, self.layers, self.head)

    def __hash__(self):
        return hash(self.spec)  # equal networks have equal specs

    def forward(self, inputs, counter: OpCounter | None = None) -> np.ndarray:
        return forward_full(self, inputs, counter)


def _draw_layout(shapes: tuple) -> tuple:
    """(doubles drawn for `shapes`, and per run of m equal consecutive shapes:
    the slice of its doubles, kernel then bias (if drawn) per weight; their
    (m, doubles per weight) shape; the kernel floats per weight; the kernel
    shape (m, out, in, *taps); the slice of its gathered floats; their
    (m, out, k*in + 1) shape; and its scale a = 0.5/sqrt(fan_in))."""
    runs, drawn, size = [], 0, 0
    for (out, in_ch, taps, bias), run in groupby(shapes):
        m, k = len(list(run)), math.prod(taps)
        n, c = out * in_ch * k, in_ch * k + 1
        stride = n + out * bias
        runs.append((slice(drawn, drawn + m * stride), (m, stride), n, (m, out, in_ch) + taps,
                     slice(size, size + m * out * c), (m, out, c), 0.5 / math.sqrt(c - 1)))
        drawn, size = drawn + m * stride, size + m * out * c
    return drawn, tuple(runs)


def _gather_index(drawn: int, runs: tuple) -> np.ndarray:
    """The index whose `take` from the drawn values, and a zero one past
    them, is every `fused` of `runs` (`_draw_layout`).  A run's block is one
    pattern, the places of its first weight's doubles in `fused` order, and
    weight w's places are the pattern's plus w * stride: each contiguous add
    doubles the weights laid out, so a run of m takes about log2(m) of them
    (numpy adds a scalar to a contiguous block several times faster than a
    broadcast column of offsets), and nothing larger than one weight is
    allocated beside the index.  An undrawn bias reads the zero.  The index
    stays writable, since `take` copies a read-only index on every call;
    nothing writes it after."""
    index = np.empty(runs[-1][4].stop if runs else 0, np.intp)
    for drawn_at, (m, stride), n, (_, out, in_ch, *_), fused_at, shape, _ in runs:
        block = index[fused_at].reshape(shape)
        places = np.arange(drawn_at.start, drawn_at.start + stride)
        block[0, :, :-1].reshape(out, -1, in_ch)[...] = (
            places[:n].reshape(out, in_ch, -1).transpose(0, 2, 1))
        block[0, :, -1] = places[n:] if stride > n else drawn
        done = 1
        while done < m:
            step = min(done, m - done)
            np.add(block[:step], done * stride, out=block[done : done + step])
            done += step
        if stride == n:  # the adds moved the undrawn biases off the zero
            block[1:, :, -1] = drawn
    return index


def draw_uniform(rng: np.random.Generator, shapes) -> list:
    """A network's weights, drawn in order from `rng`: one `ConvWeights` per
    (out, in, taps, bias) of `shapes`, taps a tuple of kernel extents and
    bias whether a bias is drawn (else it is zeros).  Each weight's values,
    kernel then bias, are uniform at scale a = 0.5/sqrt(fan_in), fan_in =
    in * the product of its taps.

    One `rng.random` call draws every double U, and each run of equal
    consecutive shapes scales its doubles in place to 2a*U - a, which is
    how `Generator.uniform(-a, a)` computes its values from the same
    doubles: the stream and every bit are those of one `uniform` call per
    weight.  Each value lies in [-a, a], a <= 0.5, so the weights are finite
    by construction.  One cast puts them into a read-only float32 buffer
    whose blocks are the weights' kernels, and one `take` through the gather
    index (`_gather_index`) lays out every `fused`, copied out per weight
    into its own read-only array.  Each weight is built through
    `ConvWeights._trusted`.

    The layout and the index are memoised per shapes tuple (`_remember`)."""
    key = tuple(shapes)
    plan = _DRAWS.get(key)
    drawn, runs = plan[:2] if plan else _draw_layout(key)
    doubles = run = rng.random(drawn)
    for drawn_at, *_, a in runs:
        run = doubles[drawn_at]
        run *= 2 * a
        run -= a
    values = np.empty(drawn + 1, DTYPE)
    values[:drawn] = doubles
    values[drawn] = 0  # the undrawn biases
    del doubles, run  # freed first, so that a new index can take their memory
    index = plan[2] if plan else _remember(key, (drawn, runs, _gather_index(drawn, runs)))
    fused = values.take(index, mode="wrap")  # in range: "wrap" skips the bounds errors
    _frozen(values)
    weights = []
    for drawn_at, draw_shape, n, kernel_shape, fused_at, fused_shape, _ in runs:
        kernels = values[drawn_at].reshape(draw_shape)[:, :n].reshape(kernel_shape)
        copies = map(_frozen, map(np.ndarray.copy, fused[fused_at].reshape(fused_shape)))
        weights += map(ConvWeights._trusted, kernels, copies)
    return weights


def _remember(key: tuple, plan: tuple) -> np.ndarray:
    """Keep `plan`, (drawn, runs, index), in `_DRAWS` if its index fits
    `MAX_DRAW_MEMO`, first dropping the oldest plans until every index fits;
    return its index."""
    size = plan[2].size
    with _DRAWS_LOCK:
        if size <= MAX_DRAW_MEMO:
            while sum(p[2].size for p in _DRAWS.values()) + size > MAX_DRAW_MEMO:
                _DRAWS.pop(next(iter(_DRAWS)))
            _DRAWS[key] = plan
    return plan[2]


# What a dilated network may ask of its cached engine: far above any shape in
# use (stacks 2, L=10, C=32 needs 65440 ring floats and 9728 table indices)
MAX_RING_FLOATS = 2**26  # ring floats per sequence: 256 MiB of float32
MAX_RING_TABLE = 2**26  # ring-row table indices: 512 MiB of intp
# What any 1D network may draw: stacks 2, L=10, C=32 has 39649 weight floats
MAX_WEIGHT_FLOATS = 2**26  # kernel and bias floats: 256 MiB of float32
# What `draw_uniform` keeps memoised: stacks 2, L=10, C=32's index has 39649 entries
MAX_DRAW_MEMO = 2**22  # gather-index entries over every memoised plan: 32 MiB of intp
_DRAWS: dict = {}  # shapes -> (`_draw_layout`..., `_gather_index`), oldest first
_DRAWS_LOCK = threading.Lock()


def _check_weights(spec: NetworkSpec, floats: int) -> None:
    """InvalidParameterError if a network's `floats` kernel and bias values,
    summed in closed form over its layers as out*(in*taps + 1), exceed
    `MAX_WEIGHT_FLOATS`: checked before any weight is drawn."""
    if floats > MAX_WEIGHT_FLOATS:
        raise InvalidParameterError(
            f"{spec.family} network too large: its weights need more than "
            f"{MAX_WEIGHT_FLOATS} floats")


def _check_buildable(spec: NetworkSpec) -> None:
    """InvalidParameterError if a dilated spec's weights, ring or ring-row
    table would exceed its ceiling; the sizes are closed form, so nothing is
    allocated.

    The ring holds stacks*(2^L - 1) - 1 rows of C floats (the dilations of
    layers 1..), and the table 2^(L-1) phases (the largest dilation) of
    stacks*L - 1 indices.  L - 1 is capped at 64 before the powers are taken:
    a larger L is over both ceilings anyway.
    """
    L, C = spec.layers_per_stack, spec.channels
    # layer 0 reads one channel, the others C, over two taps each; the head C + 1
    _check_weights(spec, C * 3 + (spec.stacks * L - 1) * C * (2 * C + 1) + C + 1)
    period = 2 ** min(L - 1, 64)
    ring = (spec.stacks * (2 * period - 1) - 1) * C
    table = period * (spec.stacks * L - 1)
    for what, size, ceiling in (("ring floats per sequence", ring, MAX_RING_FLOATS),
                                ("ring-row table indices", table, MAX_RING_TABLE)):
        if size > ceiling:
            raise InvalidParameterError(
                f"dilated network too large: stacks={spec.stacks} L={L} C={C} "
                f"needs more than {ceiling} {what}"
            )


def build_network(spec):
    """Materialise the weights for a spec of any family: a dilated or strided
    `NetworkSpec`, or an `ImageSpec` (`build_image_network`).

    A spec whose weights would exceed `MAX_WEIGHT_FLOATS`, or a dilated spec
    whose cached ring or ring-row table would exceed `MAX_RING_FLOATS` or
    `MAX_RING_TABLE`, is refused (InvalidParameterError) before any weight
    is drawn."""
    family = _family("build_network", spec, *FAMILIES, "image2d")
    if family == "strided":
        from .strided import build_strided_network

        return build_strided_network(spec)
    if family == "image2d":
        from .image2d import build_image_network

        return build_image_network(spec)
    _check_buildable(spec)
    C, dilations = spec.channels, spec.dilations()
    *convs, head = draw_uniform(np.random.default_rng(spec.seed), [(C, 1, (2,), True)]
                                + [(C, C, (2,), True)] * (len(dilations) - 1) + [(1, C, (1,), True)])
    return DilatedNetwork(spec, tuple(map(LayerDef, convs, dilations)), head)


def receptive_field(spec: NetworkSpec) -> int:
    """Exact number of input positions that can influence one output of a 1D
    spec (an image's is `receptive_field_2d`)."""
    if _family("receptive_field", spec, *FAMILIES) == "dilated":
        # two-tap layers: 1 + sum of dilations = stacks*(2^L - 1) + 1
        return 1 + sum(spec.dilations())
    from .strided import StridedPlan, strided_receptive_field

    return strided_receptive_field(StridedPlan.from_spec(spec), spec.kernel_size)


# ---------------------------------------------------------------------------
# naive engine: full receptive-field recomputation per step
# ---------------------------------------------------------------------------


def _scalar(x) -> np.ndarray:
    """`x` as a (1,) float32 array, if it is one real scalar; ShapeError
    otherwise, so that a naive step refuses before it changes its state."""
    top = zeros(1)
    if x is None:
        raise ShapeError("x must be a scalar, got None")
    try:
        top[0] = x
    except (TypeError, ValueError):
        raise ShapeError(f"x must be a scalar, got {x!r}") from None
    return top


@dataclass
class NaiveState:
    """One naive run, of constant size: per stack a (2^L, in_channels) float32
    window of its last 2^L inputs, oldest first (zeros before step 0); `t`, the
    steps taken; and the run's counter."""

    windows: list
    t: int
    counter: OpCounter


def naive_init(network: DilatedNetwork, counter: OpCounter | None = None) -> NaiveState:
    L = network.spec.layers_per_stack
    windows = [zeros((2**L, layer.weights.in_channels)) for layer in network.layers[::L]]
    return NaiveState(windows, 0, counter or OpCounter())


def naive_step(network: DilatedNetwork, state: NaiveState, x) -> np.floating:
    """Consume one input value, recompute every stack's pyramid, return the new sample.

    Level 0 of a stack is its window; node j of level l reads nodes 2j (older
    tap) and 2j+1 (newer tap) of level l-1 through layer l, so the columns
    [old; new; 1] of level l are the level below in pairs.  Each level is one
    `_stacked_point` over its live nodes, those at or after step 0: the last
    min(2^(L-l), t // 2^l + 1); the others stay zeros.  Anything but one real
    scalar x is refused (ShapeError) before any window changes.
    """
    L, top = network.spec.layers_per_stack, _scalar(x)
    for s, nodes in enumerate(state.windows):  # level 0, the window, shifts top in
        nodes[:-1] = nodes[1:]
        nodes[-1] = top
        for l, layer in enumerate(network.layers[s * L : (s + 1) * L], 1):
            live = min(len(nodes) // 2, state.t // 2**l + 1)
            cols = np.ones((live, 2 * nodes.shape[1] + 1, 1), DTYPE)
            cols[:, :-1, 0] = nodes[-2 * live :].reshape(live, -1)
            nodes = zeros((len(nodes) // 2, layer.weights.out_channels))
            np.tanh(_stacked_point(layer.weights, cols, state.counter), nodes[-live:])
        (top,) = nodes
    state.t += 1
    return conv1d_point(network.head, [top], state.counter)[0]


# ---------------------------------------------------------------------------
# cached engine: one new node per layer per step
# ---------------------------------------------------------------------------


@dataclass
class GenState:
    """All mutable state of one cached generation run (constant size in t).

    `ring` holds layers 1.. in order, `dilation` rows of width C each: row
    `offset + t % dilation` of a layer holds its input of step t - dilation
    (zeros before step 0).  Layer 0 has dilation 1 and one input channel, so
    its ring is `ring0`, the previous input.  A copy (`copy.deepcopy`) is an
    independent fork.
    """

    ring: np.ndarray
    ring0: np.ndarray
    t: int
    counter: OpCounter

    def cached_values(self) -> int:
        """Total scalars stored across all layer rings."""
        return self.ring.size + self.ring0.size


def incremental_init(network: DilatedNetwork, counter: OpCounter | None = None) -> GenState:
    """A fresh state: zeroed rings of the sizes the network fixed when built."""
    return GenState(np.zeros(network.ring_shape, DTYPE), np.zeros(network.ring0_size, DTYPE),
                    0, OpCounter() if counter is None else counter)


@cache
def _ring_rows(dilations: tuple) -> np.ndarray:
    """The ring row of each layer (of dilations `dilations`, in ring order) at
    every step t, row t % period of a read-only (period, layers) table; the
    period is the lcm of the dilations.  Memoised per dilations: every
    workspace of an equal geometry shares one table."""
    dils = np.array(dilations, dtype=np.intp)
    offsets = np.cumsum(dils) - dils  # first ring row of each layer
    return _frozen(offsets + np.arange(math.lcm(*dilations))[:, None] % dils)


class _Workspace:
    """One thread's column matrix for one network, with the per-layer plan.

    `cols` row l-1 is layer l's column [old tap; new tap; 1]; `old` and
    `new` view its two tap halves as (n-1, 1) arrays of `record`s, one ring
    row each.  `col0` is layer 0's [previous input; input; 1] and `head`
    the head's [h; 1].
    `layers` pairs each layer's weights and `Column` with the array its
    output goes to: the next layer's new tap, or the head's h.  `rows[p]`
    holds the ring row of each of layers 1.. at every step t with
    t % period == p (`_ring_rows`).  `macs` and `nodes` are a step's totals,
    every layer's node and the head's.
    """

    def __init__(self, network: DilatedNetwork):
        C = network.spec.channels
        later = network.layers[1:]
        self.rows = _ring_rows(tuple(layer.dilation for layer in later))
        self.period = len(self.rows)
        self.cols = cols = np.ones((len(later), 2 * C + 1), dtype=DTYPE)
        old, new = cols[:, :C], cols[:, C : 2 * C]
        self.record = record = np.dtype((np.void, C * cols.itemsize))  # one ring row
        self.old, self.new = old.view(record), new.view(record)
        self.col0 = np.ones(3, dtype=DTYPE)
        self.head = np.ones(C + 1, dtype=DTYPE)
        self.y = zeros(1)
        columns = [Column(self.col0, 1)] + [Column(row, C) for row in cols]
        outs = list(new) + [self.head[:C]]
        self.layers = tuple(zip([layer.weights for layer in network.layers], columns, outs))
        self.head_col = Column(self.head, C)
        self.macs = sum(layer.weights.macs for layer in network.layers) + network.head.macs
        self.nodes = len(network.layers) + 1


def _workspace(network: DilatedNetwork) -> _Workspace:
    local = network._local
    try:
        return local.workspace
    except AttributeError:
        local.workspace = workspace = _Workspace(network)
        return workspace


def incremental_step(network: DilatedNetwork, state: GenState, x) -> np.floating:
    """Advance one step: gather the old taps, one node per layer, scatter; then the head.

    Every layer computes one node at every step, through `conv1d_point` on
    its preallocated `Column`; the step's MACs and nodes are counted once.
    All old taps are read before any new tap is stored, and each layer owns
    its own ring rows, so one gather before the layers and one scatter after
    them equal a read-then-store per layer.  Both move whole rows as
    records: a `take` from a record view of the ring into the old-tap half,
    and a `put` of the new-tap half into it.  The view is made here, on
    every step, so the workspace holds no reference to any state's ring.
    Anything but one real scalar x is refused (ShapeError) before the state
    changes.
    """
    point, tanh = conv1d_point, np.tanh  # module lookups, so a patched kernel is seen
    s = _workspace(network)
    col0 = s.col0
    if x is None:  # numpy would store it as NaN
        raise ShapeError("x must be a scalar, got None")
    try:
        col0[1] = x
    except (TypeError, ValueError):
        raise ShapeError(f"x must be a scalar, got {x!r}") from None
    ring0 = state.ring0
    col0[0] = ring0[0]  # layer 0 has dilation 1
    t = state.t
    rows = s.rows[t % s.period]
    ring = state.ring.view(s.record)
    # arguments positional, here and in the loop: numpy parses them faster
    ring.take(rows, 0, s.old, "clip")
    for weights, col, out in s.layers:
        tanh(point(weights, col, None, out), out)
    y = point(network.head, s.head_col, None, s.y)
    counter = state.counter
    counter.macs += s.macs
    counter.node_evals += s.nodes
    ring.put(rows, s.new, "clip")
    ring0[0] = col0[1]
    state.t = t + 1
    return y[0]


# ---------------------------------------------------------------------------
# whole-sequence forward pass (offline oracle / scoring path)
# ---------------------------------------------------------------------------


def forward_full(
    network: DilatedNetwork, inputs: np.ndarray, counter: OpCounter | None = None
) -> np.ndarray:
    """Causal forward pass over an entire input sequence at once."""
    _family("forward_full", network, "dilated")
    x = np.asarray(inputs, dtype=DTYPE)[None, :]
    for layer in network.layers:
        x = np.tanh(conv1d_full(layer.weights, x, dilation=layer.dilation, counter=counter))
    y = conv1d_full(network.head, x, dilation=1, counter=counter)
    return y[0]
