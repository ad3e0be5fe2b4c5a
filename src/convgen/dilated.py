"""1D dilated-stack autoregressive models and their two generation engines.

The network family: `stacks` repeats of L two-tap causal conv layers with
dilations 1, 2, 4, ... 2^(L-1), tanh activations, and a final linear 1x1
projection to one channel.  Generation is deterministic: the raw output
scalar is fed back as the next input, which makes the naive and cached
engines exactly comparable.

naive engine   - keeps each stack's output history and recomputes the whole
                 within-stack dependency tree (2^L - 1 nodes) at every step.
cached engine  - one FifoCache per layer (capacity == dilation); each step
                 pops the state from `dilation` steps ago, computes one new
                 node per layer, and pushes the layer input for reuse.

Both engines route every node through `conv1d_point`, so their outputs are
bit-identical, not merely close.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cache import FifoCache
from .errors import InvalidParameterError, ScheduleViolationError
from .tensor import DTYPE, ConvWeights, OpCounter, conv1d_full, conv1d_point, zeros

FAMILIES = ("dilated", "strided")
JSON_KEYS = ("family", "stacks", "layers", "kernel", "channels", "strides", "seed")


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
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise InvalidParameterError("seed must fit in 64 bits")
        if self.strides is not None:
            object.__setattr__(self, "strides", tuple(self.strides))
        if self.family == "dilated":
            if self.stacks < 1 or self.layers_per_stack < 1 or self.channels < 1:
                raise InvalidParameterError("stacks, layers_per_stack, channels must be >= 1")
            if self.kernel_size != 2:
                raise InvalidParameterError("the dilated family uses two-tap kernels")
        if self.family == "strided":
            if self.strides is None or len(self.strides) == 0:
                raise InvalidParameterError("strided family requires a strides list")
            if self.channels < 1:
                raise InvalidParameterError("channels must be >= 1")

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
        doc = json.loads(text)
        unknown = sorted(set(doc) - set(JSON_KEYS))
        if unknown:
            raise InvalidParameterError(f"unknown NetworkSpec key(s): {', '.join(unknown)}")
        return cls(
            family=doc["family"],
            stacks=doc.get("stacks", 1),
            layers_per_stack=doc.get("layers", 1),
            kernel_size=doc.get("kernel", 2),
            channels=doc.get("channels", 1),
            strides=tuple(doc["strides"]) if doc.get("strides") else None,
            seed=doc.get("seed", 0),
        )


@dataclass(frozen=True)
class LayerDef:
    weights: ConvWeights
    dilation: int
    activation: str  # "tanh" | "linear"


@dataclass(frozen=True)
class DilatedNetwork:
    """Immutable weights for a dilated stack; shareable across threads."""

    spec: NetworkSpec
    layers: tuple[LayerDef, ...]
    head: ConvWeights


def draw_weights(rng: np.random.Generator, out_ch: int, in_ch: int, taps) -> ConvWeights:
    """Seeded uniform draw at scale 0.5/sqrt(fan_in); fan_in = in_ch * total taps."""
    shape = (out_ch, in_ch) + tuple(np.atleast_1d(taps))
    fan_in = in_ch * int(np.prod(np.atleast_1d(taps)))
    a = 0.5 / np.sqrt(fan_in)
    kernel = rng.uniform(-a, a, size=shape).astype(DTYPE)
    bias = rng.uniform(-a, a, size=(out_ch,)).astype(DTYPE)
    return ConvWeights(kernel, bias)


def build_network(spec: NetworkSpec):
    """Materialise the weights for a 1D spec (dilated or strided family)."""
    if spec.family == "dilated":
        rng = np.random.default_rng(spec.seed)
        layers = []
        for idx, d in enumerate(spec.dilations()):
            in_ch = 1 if idx == 0 else spec.channels
            layers.append(
                LayerDef(draw_weights(rng, spec.channels, in_ch, 2), d, "tanh")
            )
        head = draw_weights(rng, 1, spec.channels, 1)
        return DilatedNetwork(spec, tuple(layers), head)
    from .strided import build_strided_network

    return build_strided_network(spec)


def receptive_field(spec: NetworkSpec) -> int:
    """Exact number of input positions that can influence one output."""
    if spec.family == "dilated":
        # two-tap layers: 1 + sum of dilations = stacks*(2^L - 1) + 1
        return 1 + sum(spec.dilations())
    from .strided import StridedPlan, strided_receptive_field

    return strided_receptive_field(StridedPlan.from_spec(spec))


# ---------------------------------------------------------------------------
# naive engine: full receptive-field recomputation per step
# ---------------------------------------------------------------------------


@dataclass
class NaiveState:
    """Growing per-stack output histories plus counters for one naive run."""

    histories: list  # histories[0] = inputs; histories[s] = stack s outputs
    t: int
    counter: OpCounter


def naive_init(network: DilatedNetwork, counter: OpCounter | None = None) -> NaiveState:
    n_hist = network.spec.stacks + 1
    return NaiveState(histories=[[] for _ in range(n_hist)], t=0, counter=counter or OpCounter())


def _stack_slices(network: DilatedNetwork):
    L = network.spec.layers_per_stack
    return [network.layers[s * L : (s + 1) * L] for s in range(network.spec.stacks)]


def _tree_eval(layers, source, pos, counter):
    """Recursively evaluate the dependency tree of one stack-top node.

    Nodes at negative positions read as implicit zero padding (the same
    convention conv1d_full and the caches use), so they cost nothing; in
    steady state the tree evaluates exactly 2^L - 1 conv points, and with
    doubling dilations no position is ever visited twice.
    """
    zero_by_level = [zeros(layers[0].weights.in_channels)] + [
        zeros(layer.weights.out_channels) for layer in layers
    ]

    def value(level: int, p: int):
        if p < 0:
            return zero_by_level[level]
        if level == 0:
            return source[p]
        layer = layers[level - 1]
        d = layer.dilation
        taps = [value(level - 1, p - d), value(level - 1, p)]
        h = conv1d_point(layer.weights, taps, counter)
        return np.tanh(h) if layer.activation == "tanh" else h

    return value(len(layers), pos)


def naive_step(network: DilatedNetwork, state: NaiveState, x) -> np.floating:
    """Consume one input value, recompute the full tree, return the new sample."""
    pos = state.t
    state.histories[0].append(np.array([x], dtype=DTYPE))
    for s, stack in enumerate(_stack_slices(network)):
        state.histories[s + 1].append(
            _tree_eval(stack, state.histories[s], pos, state.counter)
        )
    y = conv1d_point(network.head, [state.histories[-1][pos]], state.counter)
    state.t += 1
    return y[0]


def _run_feedback(step_fn, prime, n_steps: int) -> np.ndarray:
    if n_steps < 1:
        raise InvalidParameterError(f"n_steps must be >= 1, got {n_steps}")
    seq = [np.float32(v) for v in prime] if len(prime) else [np.float32(0.0)]
    for v in seq[:-1]:
        step_fn(v)
    x = seq[-1]
    out = np.empty(n_steps, dtype=DTYPE)
    for i in range(n_steps):
        y = step_fn(x)
        out[i] = y
        x = y
    return out


def naive_generate(
    network: DilatedNetwork,
    prime=(),
    n_steps: int = 1,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Generate n_steps samples after priming, recomputing everything each step."""
    state = naive_init(network, counter)
    return _run_feedback(lambda v: naive_step(network, state, v), prime, n_steps)


# ---------------------------------------------------------------------------
# cached engine: one new node per layer per step
# ---------------------------------------------------------------------------


@dataclass
class GenState:
    """All mutable state of one cached generation run (constant size in t)."""

    caches: list
    t: int
    counter: OpCounter

    def cached_values(self) -> int:
        """Total scalars stored across all layer caches."""
        return sum(c.stored_values() for c in self.caches)


def incremental_init(network: DilatedNetwork, counter: OpCounter | None = None) -> GenState:
    caches = [
        FifoCache(capacity=layer.dilation, width=layer.weights.in_channels)
        for layer in network.layers
    ]
    return GenState(caches=caches, t=0, counter=counter or OpCounter())


def incremental_step(network: DilatedNetwork, state: GenState, x) -> np.floating:
    """Advance one step: pop/conv/push per layer, then the linear head."""
    cur = np.array([x], dtype=DTYPE)
    counter = state.counter
    for layer, cache in zip(network.layers, state.caches):
        if not cache.fires(state.t):
            raise ScheduleViolationError(f"layer cache not scheduled to fire at t={state.t}")
        taps = [cache.pop(), cur]
        h = conv1d_point(layer.weights, taps, counter)
        cache.push(cur)
        cur = np.tanh(h) if layer.activation == "tanh" else h
    y = conv1d_point(network.head, [cur], counter)
    state.t += 1
    return y[0]


def incremental_generate(
    network: DilatedNetwork,
    prime=(),
    n_steps: int = 1,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Cached generation; output matches naive_generate bit for bit."""
    state = incremental_init(network, counter)
    return _run_feedback(lambda v: incremental_step(network, state, v), prime, n_steps)


# ---------------------------------------------------------------------------
# whole-sequence forward pass (offline oracle / scoring path)
# ---------------------------------------------------------------------------


def forward_full(
    network: DilatedNetwork, inputs: np.ndarray, counter: OpCounter | None = None
) -> np.ndarray:
    """Causal forward pass over an entire input sequence at once."""
    x = np.asarray(inputs, dtype=DTYPE)[None, :]
    for layer in network.layers:
        x = conv1d_full(layer.weights, x, dilation=layer.dilation, counter=counter)
        if layer.activation == "tanh":
            x = np.tanh(x)
    y = conv1d_full(network.head, x, dilation=1, counter=counter)
    return y[0]
