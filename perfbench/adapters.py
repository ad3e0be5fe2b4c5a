"""One small adapter per model family: every call the benchmark makes into
`convgen` goes through this file.

Each adapter has the same four-part surface:

    init(batch, seed)          build the network and a cached-engine state
    step(state, xs)            advance every batch element by one position
    state_bytes(state)         bytes held by the engine state (public accessor)
    oracle(state, xs, ys)      per-element verdicts against a full-sequence pass

plus `counts(state)` (exact MACs and node evaluations from `OpCounter`),
`period(state)` (steps after which the schedule repeats), `pending(state)`
(outputs buffered ahead) and `schedule_ok(state, node_deltas)`, which
checks the nodes the running engine computed at each step against the
family's own op-count model (none for image2d).

Engines are reached through their modules (`dilated.incremental_step`, not a
name imported into this file), so the tracer's patches on those modules take
effect here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from convgen import dilated, image2d, strided
from convgen.tensor import DTYPE, strided_conv1d, strided_transposed_conv1d

IMAGE_TOL = 1e-5


@dataclass
class State:
    net: object
    engines: list  # one engine state per batch element, or one lockstep state


class _Family:
    """Defaults shared by the families; each overrides what differs."""

    takes_input = True  # 1D models take the previous output as the next input

    def state_bytes(self, state: State) -> int:
        return 4 * sum(e.cached_values() for e in state.engines)

    def counts(self, state: State) -> tuple[int, int]:
        macs = nodes = 0
        for e in state.engines:
            macs += e.counter.macs
            nodes += e.counter.node_evals
        return macs, nodes

    def period(self, state: State) -> int:
        return 1  # every step does the same work

    def pending(self, state: State) -> int:
        return 0  # outputs computed ahead and buffered

    def schedule_ok(self, state: State, node_deltas: np.ndarray) -> bool:
        return True


class Dilated(_Family):
    """Stacks of two-tap dilated convs; batch elements are independent states."""

    def __init__(self, stacks: int, layers: int, channels: int):
        self.stacks, self.layers, self.channels = stacks, layers, channels

    def init(self, batch: int, seed: int) -> State:
        spec = dilated.NetworkSpec(
            "dilated", stacks=self.stacks, layers_per_stack=self.layers,
            channels=self.channels, seed=seed,
        )
        net = dilated.build_network(spec)
        return State(net, [dilated.incremental_init(net) for _ in range(batch)])

    def step(self, state: State, xs: np.ndarray) -> np.ndarray:
        net = state.net
        return np.array(
            [dilated.incremental_step(net, e, x) for e, x in zip(state.engines, xs)],
            dtype=DTYPE,
        )

    def schedule_ok(self, state: State, node_deltas: np.ndarray) -> bool:
        # the paper's O(L) law: stacks*L conv nodes plus the head, every step
        per_step = len(state.engines) * (self.stacks * self.layers + 1)
        return bool(np.all(node_deltas == per_step))

    def oracle(self, state: State, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """forward_full over each element's inputs must equal its outputs bit for bit."""
        return np.array(
            [np.array_equal(dilated.forward_full(state.net, x), y) for x, y in zip(xs, ys)]
        )


class Strided(_Family):
    """Strided encoder/decoder; batch elements are independent states."""

    def __init__(self, strides: tuple[str, ...], channels: int):
        self.strides, self.channels = tuple(strides), channels
        self._nodes = self._fresh = np.zeros(0)

    def init(self, batch: int, seed: int) -> State:
        spec = dilated.NetworkSpec(
            "strided", channels=self.channels, strides=self.strides, seed=seed
        )
        net = strided.build_strided_network(spec)
        return State(net, [strided.strided_incremental_init(net) for _ in range(batch)])

    def step(self, state: State, xs: np.ndarray) -> np.ndarray:
        net = state.net
        return np.array(
            [strided.strided_incremental_step(net, e, x) for e, x in zip(state.engines, xs)],
            dtype=DTYPE,
        )

    def period(self, state: State) -> int:
        return state.net.plan.period

    def pending(self, state: State) -> int:
        return max(len(e.pending) for e in state.engines)

    def _trace(self, state: State, n_steps: int):
        """(nodes, fresh) per step from the symbolic `firing_trace`, memoised."""
        if len(self._nodes) < n_steps:
            trace = strided.firing_trace(state.net.plan, n_steps)
            self._nodes = np.array([sum(r.nodes) for r in trace], dtype=np.int64)
            self._fresh = np.array([r.emit == "fresh" for r in trace])
        return self._nodes[:n_steps], self._fresh[:n_steps]

    def trace_fresh(self, state: State, n_steps: int) -> np.ndarray:
        """True at the burst steps, where the emitted output is computed fresh."""
        return self._trace(state, n_steps)[1]

    def schedule_ok(self, state: State, node_deltas: np.ndarray) -> bool:
        expected = self._trace(state, len(node_deltas))[0] * len(state.engines)
        return bool(np.array_equal(node_deltas, expected))

    def oracle(self, state: State, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """One whole-sequence strided pass per element must equal its outputs bit for bit."""
        net = state.net
        period = net.plan.period
        ok = []
        for x, y in zip(xs, ys):
            n = len(x)
            cur = np.zeros((1, -(-n // period) * period), dtype=DTYPE)
            cur[0, :n] = x
            for layer in net.layers:
                conv = strided_conv1d if layer.kind == "down" else strided_transposed_conv1d
                cur = conv(layer.weights, cur, layer.stride)
                if layer.activation == "tanh":
                    cur = np.tanh(cur)
            ok.append(np.array_equal(cur[0, :n], y))
        return np.array(ok)


class Image2d(_Family):
    """Raster-order 2D model; the batch advances in lockstep in one state.

    The engine has no public per-pixel step, so `step` repeats the loop body
    of `image2d.image_incremental_generate`: `vertical_row_pass` at the start
    of each row, then the private `_pixel_step`.  If that loop changes, this
    method must change with it.
    """

    takes_input = False

    def __init__(self, size: int, n_layers: int, channels: int, row_pair: bool):
        self.spec_args = dict(
            height=size, width=size, channels=channels, n_layers=n_layers, row_pair=row_pair
        )

    def init(self, batch: int, seed: int) -> State:
        net = image2d.build_image_network(image2d.ImageSpec(seed=seed, **self.spec_args))
        return State(net, [image2d.image_incremental_init(net, batch)])

    def step(self, state: State, xs=None) -> np.ndarray:
        net, e = state.net, state.engines[0]
        if e.c == 0:
            image2d.vertical_row_pass(net, e, e.r)
        return image2d._pixel_step(net, e)[0]

    def state_bytes(self, state: State) -> int:
        return 4 * state.engines[0].cached_rows_values()

    def period(self, state: State) -> int:
        spec = state.net.spec
        return spec.width * (2 if spec.row_pair else 1)  # row pairs share one burst

    def oracle(self, state: State, xs, ys: np.ndarray) -> np.ndarray:
        """forward_image over the generated images must agree within IMAGE_TOL.

        The images are rebuilt from the outputs `step` returned, in raster
        order.  A prediction depends on earlier pixels alone, so a partly
        generated image is checkable: pixels not generated stay zero and
        are not compared.
        """
        spec = state.net.spec
        batch, n = ys.shape
        flat = np.zeros((batch, spec.height * spec.width), dtype=DTYPE)
        flat[:, :n] = ys
        images = flat.T.reshape(1, spec.height, spec.width, batch)
        pred = image2d.forward_image(state.net, images)[0].reshape(-1, batch)[:n].T
        return np.all(np.abs(pred.astype(np.float64) - ys) <= IMAGE_TOL, axis=1)
