"""1D dilated-stack autoregressive models and their two generation engines.

The network family: `stacks` repeats of L two-tap causal conv layers with
dilations 1, 2, 4, ... 2^(L-1), tanh activations, and a final linear 1x1
projection to one channel.  Generation is deterministic: the raw output
scalar is fed back as the next input, which makes the naive and cached
engines exactly comparable.

naive engine   - keeps each stack's output history and recomputes the whole
                 within-stack dependency tree (2^L - 1 nodes) at every step.
cached engine  - one slot ring per layer: a list of `dilation` input
                 vectors, pre-filled with a shared read-only zero vector.
                 Step t reads slot t % dilation (the layer input from
                 `dilation` steps ago), computes one new node per layer, and
                 stores the layer input in that slot for reuse.

Both engines route every node through `conv1d_point`, so their outputs are
bit-identical, not merely close.
"""

from __future__ import annotations

import copy
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cache import _frozen_zeros
from .errors import InvalidParameterError
from .tensor import DTYPE, ConvWeights, OpCounter, conv1d_full, conv1d_point, zeros

FAMILIES = ("dilated", "strided")
JSON_KEYS = ("family", "stacks", "layers", "kernel", "channels", "strides", "seed")


def _check_int(name: str, v, lo: int) -> int:
    """`v` as an int, if it is an integer (an int or a numpy integer, not a
    bool) in [lo, 2**64 - 1]; InvalidParameterError otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {v!r}")
    v = int(v)
    if not lo <= v <= 2**64 - 1:
        raise InvalidParameterError(f"{name} must be in [{lo}, 2**64 - 1], got {v}")
    return v


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
        if self.family == "strided" and not self.strides:
            raise InvalidParameterError("strided family requires a strides list")

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
    taps = tuple(taps) if isinstance(taps, (tuple, list)) else (int(taps),)
    a = 0.5 / math.sqrt(in_ch * math.prod(taps))
    kernel = rng.uniform(-a, a, size=(out_ch, in_ch) + taps).astype(DTYPE)
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

    return strided_receptive_field(StridedPlan.from_spec(spec), spec.kernel_size)


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


# ---------------------------------------------------------------------------
# cached engine: one new node per layer per step
# ---------------------------------------------------------------------------


@dataclass
class GenState:
    """All mutable state of one cached generation run (constant size in t).

    `caches[l]` is layer l's slot ring: `dilation` input vectors, where slot
    t % dilation holds the input of step t - dilation (zeros before 0).
    """

    caches: list
    t: int
    counter: OpCounter

    def cached_values(self) -> int:
        """Total scalars stored across all layer caches."""
        return sum(len(ring) * len(ring[0]) for ring in self.caches)

    def __deepcopy__(self, memo) -> "GenState":
        """A fork: new rings holding the same slot vectors, and a copied counter.

        The engine never writes a stored vector, so sharing them is safe, and
        the shared pre-fill stays read-only in the fork.
        """
        caches = [list(ring) for ring in self.caches]
        return GenState(caches, self.t, copy.deepcopy(self.counter, memo))


def incremental_init(network: DilatedNetwork, counter: OpCounter | None = None) -> GenState:
    caches = [
        [_frozen_zeros(layer.weights.in_channels)] * layer.dilation
        for layer in network.layers
    ]
    return GenState(caches=caches, t=0, counter=counter or OpCounter())


def incremental_step(network: DilatedNetwork, state: GenState, x) -> np.floating:
    """Advance one step: read slot t % dilation, conv, store, per layer; then the head.

    Every layer computes one node at every step.  A slot keeps a reference to
    the stored input, never a copy: the activation runs in place on the node
    fresh from `conv1d_point`, before it is stored anywhere as the next
    layer's input, so a stored vector is never written again.
    """
    cur = np.array([x], dtype=DTYPE)
    counter = state.counter
    t = state.t
    for layer, ring in zip(network.layers, state.caches):
        j = t % layer.dilation
        h = conv1d_point(layer.weights, (ring[j], cur), counter)
        ring[j] = cur
        if layer.activation == "tanh":
            np.tanh(h, out=h)
        cur = h
    y = conv1d_point(network.head, (cur,), counter)
    state.t = t + 1
    return y[0]


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
