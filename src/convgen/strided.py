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
once and stores the nodes each layer computes at each phase of the period;
`firing_trace` expands it.  The incremental engine walks the same rules
once per plan and layer geometry, depth first, into an op table per phase,
checked against `plan.nodes` (`_compile`); a network binds that table to
its own weights when it is built (`_bind`), so a step looks up no layer and
compares no string.  A state is one buffer of columns: a down layer's
[taps; 1] `Column` and an up layer's [vec; 1].  A step writes x into the
first column and runs its phase's ops: a node (`conv1d_point` or
`transposed_point`) writes straight into the next column's newest tap, and
a down window shifts after each input.
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
    Column,
    ConvWeights,
    OpCounter,
    _frozen,
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

    def __post_init__(self):
        # the incremental engine's `_compile`d program and its op table bound to
        # these weights; set inline, not through a cached_property, whose instance
        # __dict__ would slow every attribute load
        program = _compile(
            self.plan, tuple((l.kind, l.stride, *l.weights.kernel.shape) for l in self.layers))
        object.__setattr__(self, "_program", program)
        object.__setattr__(self, "_ops", _bind(program[2], self.layers))

    def __hash__(self):
        return hash(self.spec)  # equal networks have equal specs

    def __reduce__(self):  # copies and pickles are rebuilt through the constructor
        return StridedNetwork, (self.spec, self.plan, self.layers)


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


@cache
def _compile(plan: StridedPlan, geometry: tuple) -> tuple:
    """(blank, layout, phases) for a plan and each layer's (kind, stride, out,
    in, taps).  Layer i's column is `buf[start:stop]` for `(start, stop, in,
    is_down) = layout[i]`, then the output; `phases[p]` lists the ops (code
    "down", "up" or "shift", layer, phase or tap) of the steps t with t %
    period == p.  A phase whose node counts differ from `plan.nodes`, or a
    period that does not close the walk, raises `ScheduleViolationError`."""
    n, layout, end = len(geometry), [], 0
    for kind, _, _, in_ch, k in geometry:
        down = kind == "down"
        layout.append((end, end + (k if down else 1) * in_ch + 1, in_ch, down))
        end = layout[-1][1]
    blank = zeros(end + geometry[-1][2])
    blank[[stop - 1 for _, stop, _, _ in layout]] = 1
    counts = [0] * n

    def feed(i, ops):  # an item has just been written into column i's newest tap
        kind, s, _, _, k = geometry[i]
        # an up node fires s phases per input, a down node on each input counted 0 mod s
        fires = range(s) if kind == "up" else range(int(counts[i] % s == 0))
        counts[i] += 1
        for r in fires:
            ops.append((kind, i, r))
            if i + 1 < n:
                feed(i + 1, ops)
        if kind == "down":
            ops.extend(("shift", i, j) for j in range(k - 1))

    phases = []
    for p, expected in enumerate(plan.nodes):
        ops = []
        feed(0, ops)
        fired = tuple(sum(c != "shift" and li == i for c, li, _ in ops) for i in range(n))
        if fired != expected:
            raise ScheduleViolationError(f"phase {p} computes {fired} nodes per layer, "
                                         f"plan says {expected}")
        phases.append(tuple(ops))
    if any(c % s for c, (kind, s, *_) in zip(counts, geometry) if kind == "down"):
        raise ScheduleViolationError("the plan's period does not close the firing schedule")
    return _frozen(blank), tuple(layout), tuple(phases)


_SHIFT, _DOWN, _UP = 0, 1, 2
_CODES = {"shift": _SHIFT, "down": _DOWN, "up": _UP}


def _bind(phases: tuple, layers: tuple) -> tuple:
    """`_compile`'s phases, with each op as (code, weights, layer, phase or
    tap, tanh): the code an int, the weights those of the layer for a node
    (None for a shift), and tanh False for a node of the last layer, whose
    value is an output."""
    weights, last = [layer.weights for layer in layers], len(layers) - 1
    return tuple([
        tuple([(_CODES[c], None if c == "shift" else weights[li], li, r, li < last)
               for c, li, r in ops])
        for ops in phases
    ])


@dataclass(eq=False)
class StridedState:
    """`_compile`'s columns over one float32 buffer, plus the outputs computed
    ahead.  Between steps the down windows carry their last k-1 inputs; the
    rest of `buf` is rewritten before it is read.  Copies and pickles rebuild
    the views over their own buffer."""

    buf: np.ndarray
    layout: tuple
    pending: deque
    t: int
    counter: OpCounter

    def __post_init__(self):
        buf, layout = self.buf, self.layout
        self.columns = tuple(Column(buf[a:b], c) if down else buf[a:b] for a, b, c, down in layout)
        # where each layer's input goes: its column's newest tap; then the output
        self.newest = (*(buf[b - 1 - c : b - 1] for _, b, c, _ in layout), buf[layout[-1][1] :])

    def __reduce__(self):
        return StridedState, (self.buf, self.layout, self.pending, self.t, self.counter)

    def cached_values(self) -> int:  # the windows' k-1 inputs, plus the pending outputs
        return sum(b - a - 1 - c for a, b, c, _ in self.layout) + len(self.pending)


def strided_incremental_init(
    network: StridedNetwork, counter: OpCounter | None = None
) -> StridedState:
    blank, layout, _ = network._program
    return StridedState(blank.copy(), layout, deque(), 0, counter or OpCounter())


def strided_incremental_step(network: StridedNetwork, state: StridedState, x) -> np.floating:
    """Feed one input, run the op table of its phase, emit exactly one output.
    The kernels are looked up by name at each call, one call per node."""
    t, ops, cols, newest = state.t, network._ops, state.columns, state.newest
    newest[0][0] = x
    for code, weights, li, r, tanh in ops[t % len(ops)]:
        if code == _SHIFT:  # tap r of the window takes tap r + 1
            cols[li][r][...] = cols[li][r + 1]
            continue
        if code == _DOWN:
            h = conv1d_point(weights, cols[li], state.counter, newest[li + 1])
        else:
            h = transposed_point(weights, r, cols[li], state.counter, newest[li + 1])
        if tanh:
            np.tanh(h, h)
        else:
            state.pending.append(h[0])
    try:
        y = state.pending.popleft()
    except IndexError:
        raise ScheduleViolationError(f"no pending output available at t={t}") from None
    state.t = t + 1
    return y


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
