"""Strided encoder/decoder 1D models: stride-s downsampling convolutions
followed by transposed upsampling convolutions, generated either naively
(a full forward pass over a fixed window of the latest inputs each step,
`_naive_window`) or incrementally via the firing schedule.

A downsampling node j reads layer inputs s*j-(k-1) .. s*j (zeros below 0),
so it becomes computable exactly when input s*j arrives; an upsampling
input j emits outputs s*j .. s*j+s-1 immediately.  One network output is
emitted per generation step: on burst steps the engine computes all
newly-computable nodes, including several outputs, and buffers the extras
in a pending queue drained on the following steps.

The firing schedule has one model: `StridedPlan` simulates these rules once
and stores the nodes each layer computes at each phase of the period;
`firing_trace` expands it.  The incremental engine walks the same rules once
per plan and layer geometry, depth first, into an op table per phase,
checked against `plan.nodes` (`_compile`); a network binds that table to its
own weights, with each phase's MAC and node totals, on its first step
(`_bind`), so a step looks up no layer, compares no string and counts once.
Every node is one `conv1d_point` over a `Column`: a down layer's weights
over its [taps; 1], or up phase r's one-tap `weights.phases[r]`, [W_r | b],
over its [vec; 1].  A state is one buffer of those columns, then the output
and a dump row.  Items are routed, not shifted: input m of a down layer (k
taps, stride s) is first read by the node at c, the next multiple of s at or
after m, at tap k-1-(c-m), so x and each node's output (written with `out=`)
go straight into that tap, or into the dump row if c-m >= k and no node
reads it.  Only a window that overlaps the next one (k > s) copies: after
each fire its last k-s taps slide to the front.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from functools import cache

import numpy as np

from .dilated import _family, _scalar, draw_uniform
from .errors import (
    InvalidParameterError,
    ScheduleViolationError,
    ShapeError,
    UnsupportedTopologyError,
)
from .tensor import (
    CEILINGS,
    DTYPE,
    Column,
    ConvWeights,
    OpCounter,
    _check_sizes,
    _frozen,
    conv1d_point,
    strided_conv1d,
    strided_transposed_conv1d,
    transposed_point,  # unused here; perfbench's tracer patches it in this namespace
    zeros,
)

_STRIDE_RE = re.compile(r"^(down|up)(\d+)$")


def parse_stride(token: str) -> tuple[str, int]:
    """(kind, factor) of a down<k> or up<k> token, the factor at most the
    "period" ceiling, as is D, the product of the down strides."""
    m = _STRIDE_RE.match(token)
    if not m:
        raise InvalidParameterError(f"stride token {token!r} is not down<k> or up<k>")
    kind, digits, top = m.group(1), m.group(2).lstrip("0"), CEILINGS["period"][0]
    # a factor of more digits than the ceiling is out of range before int() reads it
    if len(digits) > len(str(top)) or not 1 <= int(digits or 0) <= top:
        raise InvalidParameterError(f"stride factor must be in [1, {top}] in {token!r}")
    return kind, int(digits)


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
        _family("StridedPlan.from_spec", spec, "strided")
        return _simulate_plan(spec.strides)


@cache
def _simulate_plan(strides: tuple[str, ...]) -> StridedPlan:
    """Check the plan rules and simulate one period.  Plans are immutable,
    so each strides list is simulated once per process.  A balanced plan
    whose down strides multiply to more than the "period" ceiling is refused
    before the simulation."""
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
    _check_sizes("strided plan", {"period": D})
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
    length = None  # a sequence has no end

    def __post_init__(self):
        # the incremental engine's `_compile`d program, and its op table bound to
        # these weights on the first step; set inline, not through a
        # cached_property, whose instance __dict__ would slow every attribute load
        program = _compile(
            self.plan, tuple((l.kind, l.stride, *l.weights.kernel.shape) for l in self.layers))
        object.__setattr__(self, "_program", program)
        object.__setattr__(self, "_ops", None)

    def __hash__(self):
        return hash(self.spec)  # equal networks have equal specs

    def __reduce__(self):  # copies and pickles are rebuilt through the constructor
        return StridedNetwork, (self.spec, self.plan, self.layers)

    @property
    def period(self) -> int:
        return self.plan.period

    def forward(self, inputs, counter: OpCounter | None = None) -> np.ndarray:
        """Causal pass over a whole sequence, one output per input: the inputs
        zero-padded to whole periods through each strided (transposed) conv."""
        x = np.asarray(inputs, dtype=DTYPE)
        cur = np.zeros((1, -(-len(x) // self.period) * self.period), dtype=DTYPE)
        cur[0, : len(x)] = x
        for layer in self.layers:
            conv = strided_conv1d if layer.kind == "down" else strided_transposed_conv1d
            cur = conv(layer.weights, cur, layer.stride, counter)
            if layer.activation == "tanh":
                cur = np.tanh(cur)
        return cur[0, : len(x)]


@cache
def _geometry(strides: tuple, kernel_size: int, channels: int) -> tuple:
    """(sizes, shapes) of a strided network, from its parsed strides alone, and
    memoised like its plan.  The sizes are D, the steps `_simulate_plan` takes;
    the weights; a cached state's buffer (`_compile`'s columns, the output and
    the dump row) and at most D pending outputs; and the naive window.  The
    shapes are each layer's weights' (out, in, taps, bias), in draw order."""
    layers, k, C = [parse_stride(tok) for tok in strides], kernel_size, channels
    (window, D), n = _naive_window(layers, k), len(layers)
    ins = [1] + [C] * (n - 1)
    shapes = tuple((1 if i == n - 1 else C, c, (k if kind == "down" else s,), True)
                   for i, ((kind, s), c) in enumerate(zip(layers, ins)))
    columns = sum((k if kind == "down" else 1) * c + 1 for (kind, _), c in zip(layers, ins))
    return {"period": D,
            "weight_floats": sum(out * (c * taps + 1) for out, c, (taps,), _ in shapes),
            "state_floats": columns + 1 + max(ins) + D, "naive_floats": window}, shapes


def build_strided_network(spec) -> StridedNetwork:
    """The sizes, the plan, then the weights: a spec whose `sizes()` exceed
    their `CEILINGS` is refused before its plan is simulated or a weight drawn."""
    _family("build_strided_network", spec, "strided")
    sizes, shapes = _geometry(spec.strides, spec.kernel_size, spec.channels)
    _check_sizes("strided network", sizes)
    plan = StridedPlan.from_spec(spec)
    n = len(plan.layers)
    weights = draw_uniform(np.random.default_rng(spec.seed), shapes)
    layers = [StridedLayer(kind, s, w, "linear" if i == n - 1 else "tanh")
              for i, ((kind, s), w) in enumerate(zip(plan.layers, weights))]
    return StridedNetwork(spec, plan, tuple(layers))


def strided_receptive_field(plan: StridedPlan, kernel_size: int = 2) -> int:
    """Steady-state count of input positions influencing one output (max over
    phase).  Positions below 0 are counted, as if the sequence had no start.

    Per phase, the positions are sorted, merged, inclusive intervals: an up
    layer maps [a, b] to [a//s, b//s]; a down layer maps node j to
    [s*j-k+1, s*j], so a run of nodes is one interval if k >= s, and each
    node is its own otherwise."""
    k, best = kernel_size, 0
    for phase in range(plan.period):
        spans = [(phase, phase)]
        for kind, s in reversed(plan.layers):
            if kind == "up":
                spans = [(a // s, b // s) for a, b in spans]
            elif k >= s:
                spans = [(s * a - k + 1, s * b) for a, b in spans]
            else:
                spans = [(s * j - k + 1, s * j) for a, b in spans for j in range(a, b + 1)]
            merged = [spans[0]]
            for a, b in spans[1:]:  # sorted: merge each span into an overlapping or adjacent one
                if a <= merged[-1][1] + 1:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], b))
                else:
                    merged.append((a, b))
            spans = merged
        best = max(best, sum(b - a + 1 for a, b in spans))
    return best


# ---------------------------------------------------------------------------
# incremental engine
# ---------------------------------------------------------------------------


@cache
def _compile(plan: StridedPlan, geometry: tuple) -> tuple:
    """(blank, layout, targets, phases) for a plan and each layer's (kind,
    stride, out, in, taps).  Layer i's column is `buf[start:stop]` for
    `(start, stop, in) = layout[i]`, [taps; 1] for a down layer and [vec; 1]
    for an up layer; the output and a dump row follow.  `targets` lists the
    `(offset, length)` range of `buf` each write goes to.  `phases[p]`, for
    the steps t with t % period == p, is (target of x, ops, MACs, nodes), the
    last two its nodes' totals: an op is ("down" or "up", layer, phase,
    target of the node's output) or ("slide", layer, destination, source),
    after a fire of a down window whose taps overlap the next one's.  A phase
    whose node counts differ from `plan.nodes`, or a period that does not
    close the walk, raises `ScheduleViolationError`."""
    n, layout, end = len(geometry), [], 0
    for kind, _, _, in_ch, k in geometry:
        layout.append((end, end + (k if kind == "down" else 1) * in_ch + 1, in_ch))
        end = layout[-1][1]
    out_ch, dump = geometry[-1][2], end + geometry[-1][2]
    blank = zeros(dump + max(g[3] for g in geometry))
    blank[[stop - 1 for _, stop, _ in layout]] = 1
    targets, counts = {}, [0] * n

    def target(offset, length):
        return targets.setdefault((offset, length), len(targets))

    def route(i):  # where layer i's next input goes: the tap of the first node reading it
        if i == n:
            return target(end, out_ch)
        kind, s, _, in_ch, k = geometry[i]
        if kind == "up":
            return target(layout[i][0], in_ch)
        lag = -counts[i] % s  # inputs until the next fire, whose window ends at tap k-1
        return target(layout[i][0] + (k - 1 - lag) * in_ch if lag < k else dump, in_ch)

    def feed(i, ops):  # an item has just been written to its target in layer i
        kind, s, _, in_ch, k = geometry[i]
        # an up node fires s phases per input, a down node on each input counted 0 mod s
        fires = range(s) if kind == "up" else range(int(counts[i] % s == 0))
        counts[i] += 1
        for r in fires:
            ops.append((kind, i, r, route(i + 1)))
            if kind == "down" and k > s:  # the next window keeps this one's last k-s taps
                a, size = layout[i][0], (k - s) * in_ch
                ops.append(("slide", i, target(a, size), target(a + s * in_ch, size)))
            if i + 1 < n:
                feed(i + 1, ops)

    node_macs = [o * c * (k if kind == "down" else 1) for kind, _, o, c, k in geometry]
    phases = []
    for p, expected in enumerate(plan.nodes):
        ops, x = [], route(0)
        feed(0, ops)
        fired = tuple(sum(c != "slide" and li == i for c, li, *_ in ops) for i in range(n))
        if fired != expected:
            raise ScheduleViolationError(f"phase {p} computes {fired} nodes per layer, "
                                         f"plan says {expected}")
        phases.append((x, tuple(ops), sum(f * m for f, m in zip(fired, node_macs)), sum(fired)))
    if any(c % s for c, (kind, s, *_) in zip(counts, geometry) if kind == "down"):
        raise ScheduleViolationError("the plan's period does not close the firing schedule")
    return _frozen(blank), tuple(layout), tuple(targets), tuple(phases)


def _bind(network: StridedNetwork) -> tuple:
    """`_compile`'s phases with each op bound to the network's weights, kept
    as `network._ops`: a node is (weights, layer, target, tanh), the weights
    a down layer's own or up phase r's `phases[r]`, tanh False on the last
    layer, whose value is an output; a slide is (None, destination, source,
    False).  Run on a network's first step, so building one builds no phase
    weights."""
    weights = [l.weights.phases if l.kind == "up" else (l.weights,) for l in network.layers]
    last = len(weights) - 1
    ops = tuple([(x, tuple([(None, r, b, False) if c == "slide" else  # a down op's r is 0
                            (weights[li][r], li, b, li < last) for c, li, r, b in ops]),
                  macs, nodes) for x, ops, macs, nodes in network._program[3]])
    object.__setattr__(network, "_ops", ops)
    return ops


@dataclass(eq=False)
class StridedState:
    """`_compile`'s columns over one float32 buffer, plus the outputs computed
    ahead.  Between steps a down window holds the inputs a later node of its
    own reads, at most k-1; the rest of `buf` is rewritten before it is read.
    `views[j]` is `buf` over `targets[j]`.  Copies and pickles rebuild the
    views over their own buffer."""

    buf: np.ndarray
    layout: tuple
    targets: tuple
    pending: deque
    t: int
    counter: OpCounter

    def __post_init__(self):
        buf = self.buf
        self.columns = tuple(Column(buf[a:b], c) for a, b, c in self.layout)
        self.views = tuple(buf[o : o + size] for o, size in self.targets)

    def __reduce__(self):
        return StridedState, (self.buf, self.layout, self.targets, self.pending, self.t,
                              self.counter)

    def cached_values(self) -> int:  # the windows' k-1 inputs, plus the pending outputs
        return sum(b - a - 1 - c for a, b, c in self.layout) + len(self.pending)


def strided_incremental_init(
    network: StridedNetwork, counter: OpCounter | None = None
) -> StridedState:
    blank, layout, targets, _ = network._program
    return StridedState(blank.copy(), layout, targets, deque(), 0, counter or OpCounter())


def strided_incremental_step(network: StridedNetwork, state: StridedState, x) -> np.floating:
    """Feed one input, run the op table of its phase, emit exactly one output.
    The kernel is looked up by name at each call, one `conv1d_point` per
    node; the phase's MACs and nodes are counted once.  Anything but one
    real scalar x is refused (ShapeError) before the state changes."""
    t, phases = state.t, network._ops or _bind(network)
    x_at, ops, macs, nodes = phases[t % len(phases)]
    cols, views, pending = state.columns, state.views, state.pending
    if x is None:  # numpy would store it as NaN
        raise ShapeError("x must be a scalar, got None")
    try:
        views[x_at][0] = x
    except (TypeError, ValueError):
        raise ShapeError(f"x must be a scalar, got {x!r}") from None
    for weights, a, b, tanh in ops:
        if weights is None:  # a slide: view a takes view b
            views[a][...] = views[b]
            continue
        h = conv1d_point(weights, cols[a], None, views[b])
        if tanh:
            np.tanh(h, h)
        else:
            pending.append(h[0])
    counter = state.counter
    counter.macs += macs
    counter.node_evals += nodes
    try:
        y = pending.popleft()
    except IndexError:
        raise ScheduleViolationError(f"no pending output available at t={t}") from None
    state.t = t + 1
    return y


# ---------------------------------------------------------------------------
# naive engine
# ---------------------------------------------------------------------------


def _naive_window(layers: tuple, kernel_size: int) -> tuple:
    """(size, D) of the naive engine's window, D the product of the down
    strides.  Output t reads no input before f(t): going from the output to
    the input, an up layer maps the earliest position a to a//s and a down
    layer to s*a - k + 1.  f is non-decreasing and f(t + D) = f(t) + D, so
    with B the least multiple of D at or above -f(0), a window that starts
    at a multiple of D at or below D*(t//D) - B holds every input output t
    reads, and one of size B + D that slides by D when input t would fall
    off its end is such a window."""
    D = math.prod(s for kind, s in layers if kind == "down")
    a = 0  # f(0), at most 0
    for kind, s in reversed(layers):
        a = a // s if kind == "up" else s * a - kernel_size + 1
    return D - a // D * D, D


@dataclass
class StridedNaiveState:
    """One naive run: the inputs from `start`, a multiple of D, to t in a
    window of fixed size (zeros after input t), D, and the run's counter."""

    window: np.ndarray
    start: int
    slide: int  # D, the product of the down strides
    t: int
    counter: OpCounter

    def cached_values(self) -> int:
        return self.window.size


def strided_naive_init(network: StridedNetwork, counter: OpCounter | None = None) -> StridedNaiveState:
    size, D = _naive_window(network.plan.layers, network.spec.kernel_size)
    return StridedNaiveState(zeros(size), 0, D, 0, counter or OpCounter())


def strided_naive_step(network: StridedNetwork, state: StridedNaiveState, x) -> np.floating:
    """Recompute the whole stack over the window and emit output t.

    The window starts at a multiple of D and reaches back past the earliest
    input output t reads (`_naive_window`); when input t would fall off its
    end it slides by D.  Every step runs the same `forward` over the whole
    window, so its MACs and nodes are constant; the network is causal, so
    output t is what a pass over all inputs so far gives.  Anything but one
    real scalar x is refused (ShapeError), and one not finite in float32
    (InvalidParameterError, as the pass would), before the window changes."""
    x = _scalar(x)
    if not np.isfinite(x[0]):
        raise InvalidParameterError(f"x must be finite in float32, got {x[0]}")
    window, D, t = state.window, state.slide, state.t
    if t - state.start == window.size:
        window[:-D] = window[D:]
        window[-D:] = 0
        state.start += D
    window[t - state.start] = x[0]
    y = network.forward(window, state.counter)[t - state.start]
    state.t = t + 1
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
