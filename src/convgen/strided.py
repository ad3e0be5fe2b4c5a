"""Strided encoder/decoder 1D models: stride-s downsampling convolutions
followed by transposed upsampling convolutions, generated either naively
(full forward pass over the whole history each step) or incrementally via
the firing schedule.

A downsampling node j reads layer inputs s*j-(k-1) .. s*j (zeros below 0),
so it becomes computable exactly when input s*j arrives; an upsampling
input j emits outputs s*j .. s*j+s-1 immediately.  One network output is
emitted per generation step: on period boundaries the engine computes a
burst (all newly-computable nodes, including several outputs) and buffers
the extras in a pending queue drained on the following steps.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cache import Schedule, schedule_build
from .dilated import _run_feedback, draw_weights
from .errors import (
    InvalidParameterError,
    ScheduleViolationError,
    UnsupportedTopologyError,
)
from .tensor import (
    DTYPE,
    ConvWeights,
    OpCounter,
    conv1d_point,
    strided_conv1d,
    strided_transposed_conv1d,
    transposed_point,
    zeros,
)

_STRIDE_RE = re.compile(r"^(down|up)(\d+)$")


def parse_stride(token: str) -> tuple[str, int]:
    m = _STRIDE_RE.match(token)
    if not m:
        raise InvalidParameterError(f"stride token {token!r} is not down<k> or up<k>")
    kind, factor = m.group(1), int(m.group(2))
    if factor < 1:
        raise InvalidParameterError(f"stride factor must be >= 1 in {token!r}")
    return kind, factor


@dataclass(frozen=True)
class StridedPlan:
    """Layer kinds/strides plus the derived firing schedule."""

    layers: tuple[tuple[str, int], ...]
    schedule: Schedule
    period: int

    @classmethod
    def from_spec(cls, spec) -> "StridedPlan":
        if spec.family != "strided":
            raise InvalidParameterError("StridedPlan requires a strided-family spec")
        layers = tuple(parse_stride(tok) for tok in spec.strides)
        schedule = schedule_build(layers)
        if schedule.cache_every[-1] != 1:
            raise UnsupportedTopologyError(
                "unbalanced topology: total upsampling must equal total downsampling "
                f"(output cache_every is {schedule.cache_every[-1]})"
            )
        return cls(layers=layers, schedule=schedule, period=schedule.period)


@dataclass(frozen=True)
class StridedLayer:
    kind: str  # "down" | "up"
    stride: int
    weights: ConvWeights
    activation: str


@dataclass(frozen=True)
class StridedNetwork:
    spec: object
    plan: StridedPlan
    layers: tuple[StridedLayer, ...]


def build_strided_network(spec) -> StridedNetwork:
    plan = StridedPlan.from_spec(spec)
    rng = np.random.default_rng(spec.seed)
    n = len(plan.layers)
    layers = []
    for i, (kind, s) in enumerate(plan.layers):
        in_ch = 1 if i == 0 else spec.channels
        last = i == n - 1
        out_ch = 1 if last else spec.channels
        taps = spec.kernel_size if kind == "down" else s
        layers.append(
            StridedLayer(kind, s, draw_weights(rng, out_ch, in_ch, taps),
                         "linear" if last else "tanh")
        )
    return StridedNetwork(spec, plan, tuple(layers))


def strided_receptive_field(plan: StridedPlan, kernel_size: int = 2) -> int:
    """Steady-state count of input positions influencing one output (max over phase)."""
    base = 10 * plan.period
    best = 0
    for phase in range(plan.period):
        positions = {base + phase}
        for kind, s in reversed(plan.layers):
            if kind == "up":
                positions = {p // s for p in positions}
            else:
                k = kernel_size
                positions = {s * j - (k - 1) + i for j in positions for i in range(k)}
        best = max(best, len([p for p in positions if p >= 0]))
    return best


# ---------------------------------------------------------------------------
# incremental engine
# ---------------------------------------------------------------------------


def _activate(layer: StridedLayer, h: np.ndarray) -> np.ndarray:
    """The layer's activation, in place on a node fresh from a point kernel."""
    if layer.activation == "tanh":
        np.tanh(h, out=h)
    return h


class _DownStage:
    """Arrival staging for a downsampling layer: fire on every stride-th input."""

    __slots__ = ("layer", "recent", "count")

    def __init__(self, layer: StridedLayer):
        self.layer = layer
        k = layer.weights.k
        self.recent = deque(
            (zeros(layer.weights.in_channels) for _ in range(k - 1)),
            maxlen=max(k - 1, 1),
        )
        self.count = 0

    def feed(self, x, counter):
        fire = self.count % self.layer.stride == 0
        out = []
        if fire:
            window = (*self.recent, x)[-self.layer.weights.k :]
            out.append(_activate(self.layer, conv1d_point(self.layer.weights, window, counter)))
        if self.layer.weights.k > 1:
            self.recent.append(x)
        self.count += 1
        return out

    def stored_values(self) -> int:
        return sum(int(v.size) for v in self.recent)


class _UpStage:
    """A transposed layer: each input item immediately emits `stride` outputs."""

    __slots__ = ("layer",)

    def __init__(self, layer: StridedLayer):
        self.layer = layer

    def feed(self, x, counter):
        out = []
        for r in range(self.layer.stride):
            out.append(_activate(self.layer, transposed_point(self.layer.weights, r, x, counter)))
        return out

    def stored_values(self) -> int:
        return 0


@dataclass
class StridedState:
    stages: list
    pending: deque
    t: int
    counter: OpCounter

    def cached_values(self) -> int:
        return sum(s.stored_values() for s in self.stages) + sum(
            int(v.size) for v in self.pending
        )


def strided_incremental_init(
    network: StridedNetwork, counter: OpCounter | None = None
) -> StridedState:
    stages = [
        _DownStage(l) if l.kind == "down" else _UpStage(l) for l in network.layers
    ]
    return StridedState(stages=stages, pending=deque(), t=0, counter=counter or OpCounter())


def strided_incremental_step(network: StridedNetwork, state: StridedState, x) -> np.floating:
    """Feed one input, cascade firings down the stack, emit exactly one output."""
    schedule = network.plan.schedule
    t = state.t
    items = [np.array([x], dtype=DTYPE)]
    for li, stage in enumerate(state.stages):
        produced = []
        for item in items:
            produced.extend(stage.feed(item, state.counter))
        expected = schedule.emit_count[li + 1] if schedule.fires(li + 1, t) else 0
        if len(produced) != expected:
            raise ScheduleViolationError(
                f"layer {li + 1} computed {len(produced)} nodes at t={t}, schedule says {expected}"
            )
        items = produced
    state.pending.extend(items)
    if not state.pending:
        raise ScheduleViolationError(f"no pending output available at t={t}")
    y = state.pending.popleft()
    state.t += 1
    return y[0]


def strided_incremental_generate(
    network: StridedNetwork, n_steps: int, counter: OpCounter | None = None
) -> np.ndarray:
    state = strided_incremental_init(network, counter)
    return _run_feedback(lambda v: strided_incremental_step(network, state, v), (), n_steps)


# ---------------------------------------------------------------------------
# naive engine
# ---------------------------------------------------------------------------


@dataclass
class StridedNaiveState:
    inputs: list
    t: int
    counter: OpCounter


def strided_naive_init(network: StridedNetwork, counter: OpCounter | None = None) -> StridedNaiveState:
    return StridedNaiveState(inputs=[], t=0, counter=counter or OpCounter())


def strided_naive_step(network: StridedNetwork, state: StridedNaiveState, x) -> np.floating:
    """Recompute the whole stack over all inputs so far and emit output t."""
    state.inputs.append(np.float32(x))
    T = len(state.inputs)
    period = network.plan.period
    padded = -(-T // period) * period
    cur = np.zeros((1, padded), dtype=DTYPE)
    cur[0, :T] = state.inputs
    for layer in network.layers:
        if layer.kind == "down":
            cur = strided_conv1d(layer.weights, cur, layer.stride, state.counter)
        else:
            cur = strided_transposed_conv1d(layer.weights, cur, layer.stride, state.counter)
        if layer.activation == "tanh":
            cur = np.tanh(cur)
    y = cur[0, state.t]
    state.t += 1
    return y


def strided_naive_generate(
    network: StridedNetwork, n_steps: int, counter: OpCounter | None = None
) -> np.ndarray:
    state = strided_naive_init(network, counter)
    return _run_feedback(lambda v: strided_naive_step(network, state, v), (), n_steps)


# ---------------------------------------------------------------------------
# symbolic firing trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepTrace:
    t: int
    nodes: tuple[int, ...]  # per layer, input->output order
    outputs_emitted: int
    emit: str  # "fresh" if the emitted sample was computed this step, else "buffered"


def firing_trace(plan: StridedPlan, t_max: int) -> list[StepTrace]:
    """Exact per-step (layer, nodes computed, output source) trace; no weights involved."""
    if t_max < 1:
        raise InvalidParameterError(f"t_max must be >= 1, got {t_max}")
    counts = [0] * len(plan.layers)
    pending = 0
    records = []
    for t in range(t_max):
        items = 1
        nodes = []
        for li, (kind, s) in enumerate(plan.layers):
            if kind == "down":
                produced = sum(1 for i in range(items) if (counts[li] + i) % s == 0)
                counts[li] += items
            else:
                produced = items * s
            nodes.append(produced)
            items = produced
        pending += items
        if pending == 0:
            raise ScheduleViolationError(f"trace underflow at t={t}")
        pending -= 1
        records.append(
            StepTrace(t=t, nodes=tuple(nodes), outputs_emitted=1,
                      emit="fresh" if items > 0 else "buffered")
        )
    return records


def format_trace(records) -> str:
    """Line-oriented dump, one line per firing layer (or a placeholder line)."""
    lines = []
    for rec in records:
        firing = [(li + 1, n) for li, n in enumerate(rec.nodes) if n > 0]
        if not firing:
            lines.append(f"t={rec.t} layer=- nodes=0 emit={rec.emit}")
        else:
            for li, n in firing:
                lines.append(f"t={rec.t} layer={li} nodes={n} emit={rec.emit}")
    return "\n".join(lines)
