"""Strided encoder/decoder 1D models: stride-s downsampling convolutions
followed by transposed upsampling convolutions, generated either naively
(full forward pass over the whole history each step) or incrementally via
the firing schedule.

A downsampling node j reads layer inputs s*j-(k-1) .. s*j (zeros below 0),
so it becomes computable exactly when input s*j arrives; an upsampling
input j emits outputs s*j .. s*j+s-1 immediately.  One network output is
emitted per generation step: on burst steps the engine computes all
newly-computable nodes, including several outputs, and buffers the extras
in a pending queue drained on the following steps.

The firing schedule has one model: `StridedPlan` simulates these rules
once and stores the nodes each layer computes at each phase of the period.
The incremental engine checks every layer of every step against that
table, and `firing_trace` expands it.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cache

import numpy as np

from .dilated import draw_weights
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
    """Layer kinds/strides plus the firing table of one period.

    `nodes[p][i]` is the number of nodes layer i (input -> output order)
    computes at every step t with t % period == p; the engine checks itself
    against it and `firing_trace` expands it.
    """

    layers: tuple[tuple[str, int], ...]
    nodes: tuple[tuple[int, ...], ...]
    period: int

    @classmethod
    def from_spec(cls, spec) -> "StridedPlan":
        if spec.family != "strided":
            raise InvalidParameterError("StridedPlan requires a strided-family spec")
        return _simulate_plan(spec.strides)


@cache
def _simulate_plan(strides: tuple[str, ...]) -> StridedPlan:
    """Check the plan rules and simulate one period.  Plans are immutable,
    so each strides list is simulated once per process."""
    layers = tuple(parse_stride(tok) for tok in strides)
    running = 1  # amortised update period: times each down factor, over each up factor
    D = 1  # product of the down strides
    for kind, s in layers:
        if kind == "down":
            running *= s
            D *= s
        elif running % s:
            raise UnsupportedTopologyError(
                f"upsampling by {s} at running period {running} would need a "
                "fractional update period"
            )
        else:
            running //= s
    if running != 1:
        raise UnsupportedTopologyError(
            "unbalanced topology: total upsampling must equal total downsampling "
            f"(output update period is {running})"
        )
    # after D steps every down layer's input count is back to 0 mod its
    # stride, so simulating D steps gives a table that repeats with D
    counts = [0] * len(layers)
    table = []
    for _ in range(D):
        items, row = 1, []
        for li, (kind, s) in enumerate(layers):
            if kind == "down":  # a node fires on each input whose count is 0 mod s,
                c = counts[li]  # so on the multiples of s in [c, c + items)
                counts[li] = (c + items) % s
                items = (c + items - 1) // s - (c - 1) // s
            else:
                items *= s
            row.append(items)
        table.append(tuple(row))
    period = next(p for p in range(1, D + 1) if D % p == 0 and table[p:] + table[:p] == table)
    return StridedPlan(layers=layers, nodes=tuple(table[:period]), period=period)


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
    """Steady-state count of input positions influencing one output (max over
    phase).  Positions below 0 are counted, as if the sequence had no start."""
    best = 0
    for phase in range(plan.period):
        positions = {phase}
        for kind, s in reversed(plan.layers):
            if kind == "up":
                positions = {p // s for p in positions}
            else:
                k = kernel_size
                positions = {s * j - (k - 1) + i for j in positions for i in range(k)}
        best = max(best, len(positions))
    return best


# ---------------------------------------------------------------------------
# incremental engine
# ---------------------------------------------------------------------------


@dataclass
class StridedState:
    """Per layer: the last k-1 inputs of a down layer (None for an up layer)
    and the count of inputs it has seen; plus the outputs computed ahead."""

    recent: list
    counts: list
    pending: deque
    t: int
    counter: OpCounter

    def cached_values(self) -> int:
        return sum(int(v.size) for r in self.recent if r for v in r) + sum(
            int(v.size) for v in self.pending
        )


def strided_incremental_init(
    network: StridedNetwork, counter: OpCounter | None = None
) -> StridedState:
    recent = [
        deque((zeros(l.weights.in_channels) for _ in range(l.weights.k - 1)),
              maxlen=l.weights.k - 1)
        if l.kind == "down" else None
        for l in network.layers
    ]
    return StridedState(recent=recent, counts=[0] * len(network.layers), pending=deque(),
                        t=0, counter=counter or OpCounter())


def strided_incremental_step(network: StridedNetwork, state: StridedState, x) -> np.floating:
    """Feed one input, cascade firings down the stack, emit exactly one output.

    A down layer fires on every stride-th input it sees; an up layer emits
    `stride` outputs for each input at once.
    """
    plan = network.plan
    t = state.t
    expected = plan.nodes[t % plan.period]
    counter = state.counter
    items = [np.array([x], dtype=DTYPE)]
    for li, layer in enumerate(network.layers):
        w = layer.weights
        produced = []
        if layer.kind == "down":
            recent = state.recent[li]
            for item in items:
                if state.counts[li] % layer.stride == 0:
                    produced.append(conv1d_point(w, (*recent, item), counter))
                recent.append(item)
                state.counts[li] += 1
        else:
            for item in items:
                for r in range(layer.stride):
                    produced.append(transposed_point(w, r, item, counter))
        if layer.activation == "tanh":
            for h in produced:
                np.tanh(h, out=h)
        if len(produced) != expected[li]:
            raise ScheduleViolationError(
                f"layer {li + 1} computed {len(produced)} nodes at t={t}, "
                f"plan says {expected[li]}"
            )
        items = produced
    state.pending.extend(items)
    if not state.pending:
        raise ScheduleViolationError(f"no pending output available at t={t}")
    y = state.pending.popleft()
    state.t += 1
    return y[0]


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
    """`plan.nodes` expanded over t_max steps, with the output source of each
    step (computed fresh or drained from the pending queue); no weights involved."""
    if t_max < 1:
        raise InvalidParameterError(f"t_max must be >= 1, got {t_max}")
    pending = 0
    records = []
    for t in range(t_max):
        nodes = plan.nodes[t % plan.period]
        pending += nodes[-1]
        if pending == 0:
            raise ScheduleViolationError(f"trace underflow at t={t}")
        pending -= 1
        records.append(
            StepTrace(t=t, nodes=nodes, outputs_emitted=1,
                      emit="fresh" if nodes[-1] > 0 else "buffered")
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
