"""`init` / `step`, one batch protocol for every engine; `generate` over it;
and the benchmark and verification command line (``convgen-bench``).

Every engine is an `ENGINES` entry, `init(network, batch, counter)`,
`step(network, state, xs)` -> float32 (batch,) and the closed-form floats
its state holds per sequence, which `init` bounds; 1D per-sequence functions
enter through one lift, `_each`.  The network holds what differs by family:
its schedule's `period`, its sequence `length` and its `forward` pass.

Subcommands:
  run      time naive vs cached generation over depth/batch sweeps, CSV out
  speedup  turn a run CSV into a per-configuration speedup table
  verify   run the equivalence / trace / op-count / causality property suite

Op counts are the primary signal (exact, machine-checkable); wall times are
the secondary, hardware-dependent one.  Timing excludes network construction
and warm-up, but a whole-image repeat includes its fresh image's set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .dilated import (
    NetworkSpec,
    build_network,
    incremental_init,
    incremental_step,
    naive_init,
    naive_step,
    receptive_field,
)
from .errors import InvalidParameterError, ShapeError
from .image2d import (
    ImageSpec,
    _no_input,
    _sizes,
    build_image_network,
    image_incremental_init,
    image_incremental_step,
    image_naive_init,
    image_naive_step,
)
from .strided import (
    StridedPlan,
    _naive_window,
    build_strided_network,
    firing_trace,
    strided_incremental_init,
    strided_incremental_step,
    strided_naive_init,
    strided_naive_step,
)
from .tensor import DTYPE, OpCounter, _check_int

EQUIV_TOL = 1e-5
HOURGLASS_STRIDES = ("down2", "down2", "up2", "up2")
# (strides, kernel_size) the strided samples cycle through: the hourglass's
# k = s windows, k < s (inputs no node reads) and k > s (windows that overlap)
STRIDED_SAMPLES = (
    (HOURGLASS_STRIDES, 2),
    (("down2", "up2", "down3", "up3"), 1),
    (("down3", "up3", "down2", "up2"), 3),
)

CSV_COLUMNS = (
    "model",
    "L",
    "stacks",
    "batch",
    "mode",
    "steps",
    "repeats",
    "wall_us_per_step",
    "macs_per_step",
    "max_abs_diff",
)


# ---------------------------------------------------------------------------
# the engine table, and the batch step that generate, checks and timing run through
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PerSequence:
    """A lifted 1D engine's batch: one engine state per sequence, and each
    one's last output (0.0 before the first step)."""

    states: list
    ys: list


def _init_each(init_one, network, batch: int, counter: OpCounter) -> PerSequence:
    states = [init_one(network, counter) for _ in range(batch)]
    return PerSequence(states, [np.float32(0.0)] * batch)


def _step_each(step_one, network, seqs: PerSequence, xs) -> np.ndarray:
    if xs is None:
        xs = seqs.ys
    else:
        n = len(seqs.states)
        try:
            values = np.asarray(xs)
        except (TypeError, ValueError):  # ragged nesting
            values = None
        if values is None or values.dtype.kind not in "biufc":  # strings, objects: not numbers
            raise ShapeError(f"xs must be 1-D of {n} numbers")
        if values.shape != (n,):
            raise ShapeError(f"xs must be 1-D of length {n}, got {values.shape}")
        xs = _finite_reals("xs", values)
    # map, not a comprehension: no frame of its own, which a B=1 step feels
    seqs.ys = ys = list(map(step_one, repeat(network), seqs.states, xs))
    return np.array(ys, DTYPE)


# What one `init` may hold: its engine's state floats over the whole batch
MAX_BATCH_FLOATS = 2**26  # 256 MiB of float32
# A lifted 1D sequence's state objects (the state, its arrays, views and
# `Column`s) beyond their floats: tracemalloc measured 4.4 KB per strided
# hourglass state and 0.6 KB per dilated one, so 8 KiB is charged
SEQUENCE_FLOATS = 2**11


def _each(init_one: Callable, step_one: Callable, floats_one: Callable) -> tuple:
    """A 1D engine's per-sequence `init(network, counter)`, `step(network,
    state, x) -> y` and `floats(network)`, its state's floats, lifted to the
    batch protocol over a `PerSequence`: `init` and `step` as partials of
    module functions, so that a batch state pickles, and the floats with
    SEQUENCE_FLOATS more for the state's objects."""
    return (partial(_init_each, init_one), partial(_step_each, step_one),
            lambda network: SEQUENCE_FLOATS + floats_one(network))


ENGINES = {  # family -> engine -> (init, step, state floats per sequence)
    "dilated": {  # naive: a (2^L, in) window per stack, in 1 for stack 0 and C after
        "naive": _each(naive_init, naive_step, lambda net: 2**net.spec.layers_per_stack
                       * (1 + (net.spec.stacks - 1) * net.spec.channels)),
        "cached": _each(incremental_init, incremental_step,
                        lambda net: math.prod(net.ring_shape) + net.ring0_size),
    },
    "strided": {  # naive: the window; cached: the buffer, pending outputs
        "naive": _each(strided_naive_init, strided_naive_step,
                       lambda net: _naive_window(net.plan, net.spec.kernel_size)[0]),
        "cached": _each(strided_incremental_init, strided_incremental_step,
                        lambda net: net._program[0].size + net.period),
    },
    "image2d": {  # one state for the whole batch: `_sizes` per batch element
        "naive": (image_naive_init, image_naive_step, lambda net: _sizes(net.spec)[2]),
        "cached": (image_incremental_init, image_incremental_step,
                   lambda net: _sizes(net.spec)[1]),
    },
}


def _check_size(what: str, size: int, ceiling: int) -> None:
    if size > ceiling:
        raise InvalidParameterError(f"{what} {size} is more than {ceiling}")


def _engine(network, engine: str, batch) -> tuple:
    """`ENGINES` entry of `network`'s family for `engine`, and `batch` as an
    int, if its states' floats over the batch (at least 1 per sequence) stay
    within MAX_BATCH_FLOATS; InvalidParameterError otherwise."""
    engines = ENGINES[network.spec.family]
    if engine not in engines:
        raise InvalidParameterError(f"engine must be naive or cached, got {engine!r}")
    batch = _check_int("batch", batch, 1)
    start, advance, floats = engines[engine]
    _check_size(f"a {engine} batch of {batch}: state floats", batch * max(1, floats(network)),
                MAX_BATCH_FLOATS)
    return start, advance, batch


MAX_PRIME = 2**24  # values: a prime is copied into one float32 array up front
MAX_OUTPUTS = 2**26  # n_steps x batch: `generate`'s output array, 256 MiB of float32
MAX_TIMED_STEPS = 2**20  # repeats x steps: `time_engine` keeps one timing per step
MAX_SWEEP_VALUES = 2**10  # counts in one `--layers` or `--batch` sweep


def _finite_reals(what: str, values: np.ndarray) -> np.ndarray:
    """`values` as float32, if they are real numbers (not bools) each finite in
    float32; InvalidParameterError naming `what` otherwise."""
    if values.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{what} must be real numbers, got dtype {values.dtype}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = values.astype(DTYPE)
    if not np.isfinite(values).all():
        raise InvalidParameterError(f"{what} values must be finite in float32")
    return values


def _check_prime(prime) -> np.ndarray:
    """`prime` as a float32 array, if it is a 1-D sequence of at most MAX_PRIME
    finite real numbers (not bools, `_finite_reals`); InvalidParameterError
    otherwise.

    The length is checked before the values are read, so a lazy sequence
    that is too long (a huge `range`) is refused without being materialised.
    """
    try:
        n = len(prime)
    except TypeError:
        raise InvalidParameterError(f"prime must be a 1-D sequence, got {prime!r}") from None
    if n > MAX_PRIME:
        raise InvalidParameterError(f"prime has {n} values, more than {MAX_PRIME}")
    try:
        values = np.asarray(prime)
    except (TypeError, ValueError):  # ragged nesting
        values = None
    if values is None or values.ndim != 1:
        raise InvalidParameterError(f"prime must be a 1-D sequence, got {prime!r}")
    return _finite_reals("prime", values)


@dataclass(eq=False)
class BatchState:
    """`init`'s batch: its engine's `init` and `step`, the engine's state of
    the whole batch, counting into `counter`; and the steps `t` taken in the
    current sequence, which ends after the network's `length` (None: never)."""

    engine_init: Callable
    engine_step: Callable
    engine: object
    counter: OpCounter
    batch: int
    length: int | None
    t: int = 0


def init(network, engine: str = "cached", batch: int = 1, counter=None) -> BatchState:
    """A fresh batch for `step`, run by `engine` ("naive" or "cached"); every
    step counts into `counter` (a new OpCounter by default).  A
    `copy.deepcopy` or a pickle forks it: both copies continue as the whole
    run would.  A batch whose states would hold more than MAX_BATCH_FLOATS
    floats is refused (InvalidParameterError) before any is built."""
    start, advance, batch = _engine(network, engine, batch)
    counter = OpCounter() if counter is None else counter
    return BatchState(start, advance, start(network, batch, counter), counter, batch,
                      network.length)


def step(network, state: BatchState, xs=None) -> np.ndarray:
    """Advance every sequence of `state` one step: a fresh float32 (batch,) array.

    1D sequence j reads xs[j], or its own last output when `xs` is None
    (0.0 at first); a given `xs` must be 1-D of length batch (ShapeError)
    and hold real numbers, not bools, finite in float32 (InvalidParameterError,
    as for a prime), both checked before any state changes.  An image reads
    its own last pixel too, so image2d takes only None (InvalidParameterError
    otherwise, before any work); it restarts after an image's end."""
    if state.t == state.length:
        _no_input(xs)  # only an image ends; refused before the restart builds anything
        state.engine = state.engine_init(network, state.batch, state.counter)
        state.t = 0
    ys = state.engine_step(network, state.engine, xs)
    state.t += 1
    return ys


def generate(network, n_steps=None, *, engine="cached", batch=1, prime=(), counter=None):
    """`init`'s batch run for n_steps `step`s: float32 (n_steps, batch), row i
    the i-th output of every sequence.

    1D sequences are fed `prime` (at most MAX_PRIME finite real numbers),
    then their own outputs; the outputs of the first len(prime) - 1 steps
    are dropped, so row 0 is the prediction after the whole prime; a 1D
    sequence has no end, so `n_steps` is required.  image2d takes no prime,
    row i is raster pixel i, and `n_steps` defaults to one whole image.  The
    naive and cached engines give identical 1D outputs, and image outputs
    within float32 noise.  More than MAX_OUTPUTS outputs (n_steps x batch)
    are refused before anything is allocated.
    """
    batch = _check_int("batch", batch, 1)
    n = _check_int("n_steps", network.length if n_steps is None else n_steps, 1)
    _check_size("outputs (n_steps x batch)", n * batch, MAX_OUTPUTS)
    prime = _check_prime(prime)
    state = init(network, engine, batch, counter)
    out = np.empty((n, batch), dtype=DTYPE)
    for x in prime:  # row 0 keeps the prediction after the whole prime
        out[0] = step(network, state, np.full(batch, x))
    for i in range(min(len(prime), 1), n):
        out[i] = step(network, state)
    return out


def _step_percentiles(step_us: np.ndarray, position: np.ndarray) -> dict:
    """p50 and p99 of the steps, each step counting as the median of all steps
    at its position in the schedule period: a schedule's slow phases show,
    one slow step of the machine does not.  The inverted-CDF percentile keeps
    p50 on one side of an even split."""
    by_position = np.zeros(position.max() + 1)
    for k in np.unique(position):
        by_position[k] = np.median(step_us[position == k])
    values = by_position[position]
    return {f"p{q}_us": float(np.percentile(values, q, method="inverted_cdf")) for q in (50, 99)}


def time_engine(
    network,
    engine: str,
    steps: int | None,
    repeats: int,
    warmup: int | None = None,
    batch: int = 1,
) -> dict:
    """Per-step wall time (all batch elements advance once per step) and exact macs.

    The time of one step is its repeat's mean; `min_us`, `median_us` and
    `mean_us` summarise it over the repeats.  `setup_us` is `init` and the
    first step under one timer, so it holds what a fresh state and a first
    use build.  Warm-up, which starts with that first step and is excluded
    from the step timing, defaults to the network's `length` (one image),
    else to 4 steps, or for a naive engine to one receptive field if longer,
    because earlier steps read the zero padding and cost less than the
    steady state.  `steps=None` times whole sequences (images), each with
    its fresh image's set-up: `init`, and the cached engine's views bound on
    the first pixel.  `p50_us` and `p99_us` come from a second pass of as
    many steps, each timed on its own: percentiles over the steps, each
    counted as the median at its position in the network's schedule
    `period`, from the sequence's start.  More than MAX_TIMED_STEPS timed
    steps (repeats x steps) are refused before anything runs.
    """
    steps = _check_int("steps", network.length if steps is None else steps, 1)
    _check_size("timed steps (repeats x steps)", _check_int("repeats", repeats, 1) * steps,
                MAX_TIMED_STEPS)
    clock = time.perf_counter
    t0 = clock()
    state = init(network, engine, batch)
    step(network, state)
    setup_us = (clock() - t0) * 1e6
    if warmup is None:
        warmup = network.length or max(4, receptive_field(network.spec) if engine == "naive" else 0)
    warmup = max(warmup, 1)  # the first step is warm-up
    for _ in range(warmup - 1):
        step(network, state)
    macs0 = state.counter.macs
    times = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(steps):
            step(network, state)
        times.append((clock() - t0) * 1e6 / steps)
    macs = state.counter.macs - macs0
    step_us, position = [], []
    for _ in range(repeats * steps):
        position.append(state.t % network.period)
        t0 = clock()
        step(network, state)
        step_us.append((clock() - t0) * 1e6)
    return {
        "min_us": min(times),
        "median_us": statistics.median(times),
        "mean_us": statistics.fmean(times),
        "macs_per_step": macs // (repeats * steps),
        "setup_us": setup_us,
        **_step_percentiles(np.array(step_us), np.array(position)),
    }


# ---------------------------------------------------------------------------
# equivalence + property checks (shared by `verify` and the test suite)
# ---------------------------------------------------------------------------


def compare(naive_network, cached_network, n_steps: int | None = None, batch: int = 1) -> float:
    """Max |naive - cached| over n_steps steps of `batch` sequences (default: one image)."""
    a = generate(naive_network, n_steps, engine="naive", batch=batch)
    b = generate(cached_network, n_steps, engine="cached", batch=batch)
    return float(np.max(np.abs(a.astype(np.float64) - b)))


def check_equivalence(networks, n_steps: int | None = None, tol: float = EQUIV_TOL):
    """Naive vs cached engines of every network over n_steps steps (default: whole images)."""
    diffs = [compare(net, net, n_steps) for net in networks]
    ok = all(d <= tol for d in diffs)
    span = "whole images" if n_steps is None else f"{n_steps} steps"
    detail = f"max|naive-cached|={max(diffs):.3g} ({len(networks)} networks x {span})"
    if not ok:
        bad = next(net for net, d in zip(networks, diffs) if not d <= tol)
        detail += f", first over {tol}: {bad.spec}"
    return ok, detail


def _sample_networks(family: str, n: int, seed: int = 0, shapes=((8, 8, 3),)) -> list:
    """n seeded random networks of one family (strided ones cycle through
    `STRIDED_SAMPLES`; for image2d, n per (height, width, n_layers) shape
    without and, for even heights, n with the row pair, their channels
    cycling through 1, 4 and 8: both layouts of `ImageBlock.folded`, and
    their C=1 case, and their kh through 1, 2 and 3, starting one further
    on at each next (shape, row pair): at n = 3, any three of them draw all
    nine pairings)."""
    rng = np.random.default_rng(seed)
    if family == "dilated":
        return [
            build_network(NetworkSpec(
                "dilated",
                stacks=int(rng.integers(1, 3)),
                layers_per_stack=int(rng.integers(1, 7)),
                channels=int(rng.choice([1, 4, 16])),
                seed=int(rng.integers(2**32)),
            ))
            for _ in range(n)
        ]
    if family == "strided":
        return [
            build_strided_network(NetworkSpec(
                "strided", kernel_size=k, channels=3, strides=strides,
                seed=int(rng.integers(2**32)),
            ))
            for strides, k in (STRIDED_SAMPLES[i % len(STRIDED_SAMPLES)] for i in range(n))
        ]
    return [
        build_image_network(ImageSpec(
            h, w, channels=(1, 4, 8)[j % 3], n_layers=layers, kh=1 + (g + j) % 3,
            row_pair=row_pair, seed=int(rng.integers(2**32)),
        ))
        for g, ((h, w, layers), row_pair) in enumerate(
            (shape, pair) for shape in shapes for pair in (False, True)[: 2 - shape[0] % 2])
        for j in range(n)
    ]


def measure_nodes_per_step(network, engine: str, n_steps: int = 4) -> int:
    """Exact steady-state node evaluations per generated sample of a 1D network.

    Warm-up covers one receptive field so the naive engine's dependency
    tree no longer touches the zero-padded region (early trees are cheaper).
    """
    state = init(network, engine)
    for _ in range(receptive_field(network.spec)):
        step(network, state)
    before = state.counter.node_evals
    for _ in range(n_steps):
        step(network, state)
    total = state.counter.node_evals - before
    if total % n_steps:
        return -1  # not constant per step; callers treat as a failure
    return total // n_steps


def check_op_count_law(l_max: int = 8, n_steps: int = 4):
    for stacks in (1, 2):
        for L in range(1, l_max + 1):
            spec = NetworkSpec("dilated", stacks=stacks, layers_per_stack=L, channels=2, seed=7)
            net = build_network(spec)
            for engine, per_step in (
                ("naive", stacks * (2**L - 1) + 1),
                ("cached", stacks * L + 1),
            ):
                measured = measure_nodes_per_step(net, engine, n_steps)
                if measured != per_step:
                    return False, (
                        f"{engine} L={L} stacks={stacks}: node_evals/step "
                        f"{measured} != {per_step}"
                    )
    return True, f"exact for L=1..{l_max}, stacks in {{1,2}}"


def expected_hourglass_trace():
    """The burst/skip timeline for [down2, down2, up2, up2], steps 0..5."""
    burst = (1, 1, 2, 4)
    idle = (0, 0, 0, 0)
    return [
        (0, burst, "fresh"),
        (1, idle, "buffered"),
        (2, (1, 0, 0, 0), "buffered"),
        (3, idle, "buffered"),
        (4, burst, "fresh"),
        (5, idle, "buffered"),
    ]


def check_golden_trace():
    spec = NetworkSpec("strided", channels=2, strides=HOURGLASS_STRIDES, seed=0)
    plan = StridedPlan.from_spec(spec)
    trace = firing_trace(plan, 6)
    for rec, (t, nodes, emit) in zip(trace, expected_hourglass_trace()):
        if rec.t != t or rec.nodes != nodes or rec.emit != emit or rec.outputs_emitted != 1:
            return False, f"t={t}: got nodes={rec.nodes} emit={rec.emit}, want {nodes}/{emit}"
    return True, "burst at t=0 (4 outputs), idle t=1/t=3, one node at t=2, period 4"


def check_causality(seed: int = 0):
    rng = np.random.default_rng(seed)
    # (network, inputs, 1 if the output at position p reads input p); an
    # image prediction at p reads strictly earlier pixels only
    cases = (
        (build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=2, seed=11)),
         rng.standard_normal(12), 1),
        (build_strided_network(NetworkSpec("strided", channels=2, strides=HOURGLASS_STRIDES, seed=11)),
         rng.standard_normal(12), 1),
        (build_image_network(ImageSpec(6, 6, channels=3, n_layers=3, seed=11)),
         rng.standard_normal((1, 6, 6, 1)), 0),
    )
    for network, x, reads_own in cases:
        x = x.astype(DTYPE)
        base = network.forward(x).reshape(-1)
        for p in range(x.size):
            xp = x.copy()
            xp.reshape(-1)[p] += 1.0
            upto = p + 1 - reads_own
            if not np.array_equal(base[:upto], network.forward(xp).reshape(-1)[:upto]):
                return False, (
                    f"{network.spec.family} outputs before {upto} changed by a perturbation at {p}"
                )
    return True, "all families: outputs at t invariant to perturbations after t"


def check_constant_memory(n_steps: int = 1000):
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=3, seed=5)
    net = build_network(spec)
    state = init(net)
    expected = sum(l.dilation * l.weights.in_channels for l in net.layers)
    sizes = set()
    for t in range(n_steps):
        step(net, state)
        if t in (10, n_steps // 2, n_steps - 1):
            sizes.add(state.engine.states[0].cached_values())
    if sizes != {expected}:
        return False, f"cache storage {sizes} != analytic {expected}"
    return True, f"{expected} stored values, constant over {n_steps} steps"


def run_verify(quick: bool, out=None) -> int:
    """Run every property check, one machine-readable line each; 0 iff all pass."""
    out = sys.stdout if out is None else out
    # width 8 with 3 blocks ends its rows with a short group, width 7
    # (7 % 3 == 1) with a one-column one, and 1 block gives one group per
    # column; height 7 (no row pair) ends with a row alone
    image_shapes = ((8, 8, 3), (8, 7, 3), (8, 8, 1), (7, 8, 3)) + (() if quick else ((12, 12, 3),))
    checks = [
        ("dilated-equivalence", lambda: check_equivalence(
            _sample_networks("dilated", 10 if quick else 40), 64 if quick else 192)),
        ("op-count-law", lambda: check_op_count_law(6 if quick else 8)),
        ("golden-trace", check_golden_trace),
        ("strided-equivalence", lambda: check_equivalence(
            _sample_networks("strided", 5 if quick else 20), 60 if quick else 160)),
        ("image-equivalence", lambda: check_equivalence(
            _sample_networks("image2d", 3 if quick else 8, shapes=image_shapes))),
        ("causality", check_causality),
        ("constant-memory", lambda: check_constant_memory(300 if quick else 1000)),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok &= ok
        print(f"check={name} status={'pass' if ok else 'fail'} {detail}", file=out)
    print(f"verify {'passed' if all_ok else 'FAILED'}", file=out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# bench run
# ---------------------------------------------------------------------------


def _parse_counts(flag: str, text: str) -> list[int]:
    """Counts from `n`, an inclusive range `a..b`, or a comma list of either;
    at most MAX_SWEEP_VALUES of them, refused before a range is expanded."""
    values = []
    for tok in text.split(","):
        lo, dots, hi = tok.partition("..")
        try:
            a = int(lo)
            b = int(hi) if dots else a
        except ValueError:
            raise ValueError(f"bad {flag} {text!r}: {tok!r} is not n or a..b") from None
        if a < 1 or b < a:
            raise ValueError(f"bad {flag} {text!r}: {tok!r} needs 1 <= a <= b")
        if len(values) + b - a + 1 > MAX_SWEEP_VALUES:
            raise ValueError(f"bad {flag} {text!r}: more than {MAX_SWEEP_VALUES} values")
        values.extend(range(a, b + 1))
    return values


def _build_for(args, L: int, steps: int):
    """The network of one sweep point, with its CSV `L`, `stacks` and `steps`."""
    if args.model == "dilated":
        spec = NetworkSpec(
            "dilated", stacks=args.stacks, layers_per_stack=L,
            channels=args.channels, seed=args.seed,
        )
        return build_network(spec), L, args.stacks, steps
    if args.model == "strided":
        spec = NetworkSpec(
            "strided", channels=args.channels, strides=HOURGLASS_STRIDES, seed=args.seed
        )
        return build_strided_network(spec), len(HOURGLASS_STRIDES), 1, steps
    spec = ImageSpec(
        args.image_size, args.image_size, channels=args.channels,
        n_layers=L, seed=args.seed,
    )
    return build_image_network(spec), L, 1, args.image_size**2  # one whole image


def _sweep_points(args) -> list:
    """Every sweep point, built, and checked against the ceilings of `init`,
    `time_engine` and (in both modes) `generate` at each batch, before any
    output, so that a bad spec or size writes nothing."""
    layers = args.layers_list
    if args.model == "strided" and len(layers) > 1:
        print("note: --layers is ignored for the strided model", file=sys.stderr)
        layers = [len(HOURGLASS_STRIDES)]
    points = [_build_for(args, L, args.steps) for L in layers]
    for network, _, _, n in points:
        _check_size("timed steps (repeats x steps)", args.repeats * n, MAX_TIMED_STEPS)
        for batch in args.batch_list:
            if args.mode == "both":
                _check_size("outputs (n_steps x batch)", n * batch, MAX_OUTPUTS)
            for mode in ("naive", "cached") if args.mode == "both" else (args.mode,):
                _engine(network, mode, batch)
    return points


def run_bench(args, points, out=None) -> int:
    """Time the `_sweep_points` of `args` and write one CSV row per point, batch and mode."""
    out = sys.stdout if out is None else out
    repeats = args.repeats
    warmup = 16 if args.quick else None  # quick mode also skips the full steady-state warm-up
    modes = ("naive", "cached") if args.mode == "both" else (args.mode,)
    print(",".join(CSV_COLUMNS), file=out)
    worst_diff = 0.0
    for network, eff_L, stacks, eff_steps in points:
        for batch in args.batch_list:
            diff = None
            if args.mode == "both":
                diff = compare(network, network, eff_steps, batch)
                worst_diff = max(worst_diff, diff)
            diff_text = "" if diff is None else f"{diff:.6g}"
            summaries = {}
            for mode in modes:
                res = time_engine(network, mode, eff_steps, repeats, warmup=warmup, batch=batch)
                # one row in CSV_COLUMNS order
                print(
                    f"{args.model},{eff_L},{stacks},{batch},{mode},{eff_steps},{repeats},"
                    f"{res['median_us']:.3f},{res['macs_per_step']},{diff_text}",
                    file=out,
                )
                summaries[mode] = res
            note = " ".join(
                f"{m}: median={summaries[m]['median_us']:.1f}us mean={summaries[m]['mean_us']:.1f}us"
                f" setup={summaries[m]['setup_us']:.1f}us"
                for m in modes
            )
            if len(modes) == 2:
                note += f" speedup={summaries['naive']['median_us'] / summaries['cached']['median_us']:.2f}x"
            if diff is not None:
                note += f" max|diff|={diff:.3g}"
            print(f"# {args.model} L={eff_L} batch={batch} {note}", file=sys.stderr)
    if args.mode == "both" and worst_diff > EQUIV_TOL:
        print(f"error: naive/cached outputs differ by {worst_diff:.3g} > {EQUIV_TOL}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# speedup report
# ---------------------------------------------------------------------------


def _bad_csv(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def speedup_report(csv_lines, out=None) -> int:
    """Pair naive/cached rows and print per-configuration speedups; a CSV
    that is not a whole run's is an `error:` line and status 2."""
    out = sys.stdout if out is None else out
    reader = csv.DictReader(csv_lines)
    try:
        rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        return _bad_csv(f"unreadable CSV: {exc}")
    if not rows:
        return _bad_csv("empty CSV")
    absent = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
    if absent:
        return _bad_csv(f"CSV lacks column(s) {','.join(absent)}")
    table = {}
    for row in rows:
        key = (row["model"], row["L"], row["stacks"], row["batch"], row["steps"])
        text = row["wall_us_per_step"]
        try:
            us = float(text)
        except (TypeError, ValueError):  # TypeError: a short row leaves the field None
            us = math.nan
        if not (math.isfinite(us) and us > 0):
            return _bad_csv(
                f"wall_us_per_step must be a positive number, got {text!r} "
                f"(model={key[0]} L={key[1]} stacks={key[2]} batch={key[3]} mode={row['mode']})")
        table.setdefault(key, {})[row["mode"]] = us
    missing = [k for k, v in table.items() if not {"naive", "cached"} <= set(v)]
    if missing:
        return _bad_csv("unmatched pair " + "; ".join(
            f"model={k[0]} L={k[1]} stacks={k[2]} batch={k[3]} (have: {','.join(sorted(table[k]))})"
            for k in missing))
    print("model,L,stacks,batch,naive_us,cached_us,speedup", file=out)
    for key in sorted(table):
        naive_us = table[key]["naive"]
        cached_us = table[key]["cached"]
        print(
            f"{key[0]},{key[1]},{key[2]},{key[3]},{naive_us:.3f},{cached_us:.3f},"
            f"{naive_us / cached_us:.3f}",
            file=out,
        )
    return 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convgen-bench",
        description="Benchmark cached vs naive generation for convolutional autoregressive models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="time a sweep and emit CSV rows")
    run.add_argument("--model", required=True, choices=("dilated", "strided", "image2d"))
    run.add_argument("--layers", default="3",
                     help="layer count n, inclusive range a..b, or a comma list of these")
    run.add_argument("--stacks", type=int, default=2)
    run.add_argument("--channels", type=int, default=8)
    run.add_argument("--steps", type=int, default=128)
    run.add_argument("--batch", default="1", help="batch sizes, given as for --layers")
    run.add_argument("--mode", default="both", choices=("naive", "cached", "both"))
    run.add_argument("--repeats", type=int, default=20)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--csv", default="-", help="output path or - for stdout")
    run.add_argument("--quick", action="store_true",
                     help="clamp steps/repeats/warm-up for a fast smoke pass")
    run.add_argument("--image-size", type=int, default=16, help="square image side for image2d")

    spd = sub.add_parser("speedup", help="per-configuration speedup table from a run CSV")
    spd.add_argument("csv", help="CSV path or - for stdin")

    ver = sub.add_parser("verify", help="run the naive-vs-cached property suite")
    ver.add_argument("--quick", action="store_true")
    return parser


def _open(parser, path: str, mode: str, std):
    """`path` opened in `mode` as UTF-8 text, "-" meaning `std`; an unopenable
    path is a usage error."""
    if path == "-":
        return contextlib.nullcontext(std)
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot open {path}: {exc.strerror or exc}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in ("run", "speedup", "verify", "-h", "--help"):
        argv = ["run"] + argv
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        return run_verify(args.quick)

    if args.command == "speedup":
        with _open(parser, args.csv, "r", sys.stdin) as fh:
            return speedup_report(fh)

    try:
        args.layers_list = _parse_counts("--layers", args.layers)
        args.batch_list = _parse_counts("--batch", args.batch)
    except ValueError as exc:
        parser.error(str(exc))
    if args.steps < 1 or args.repeats < 1:
        parser.error("--steps and --repeats must be >= 1")
    if args.quick:
        args.steps, args.repeats = min(args.steps, 32), min(args.repeats, 3)
    try:
        points = _sweep_points(args)
    except InvalidParameterError as exc:
        parser.error(str(exc))
    with _open(parser, args.csv, "w", sys.stdout) as fh:
        return run_bench(args, points, out=fh)


if __name__ == "__main__":
    sys.exit(main())
