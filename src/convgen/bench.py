"""`generate`, the one rollout loop over every engine, and the benchmark and
verification command line (installed as ``convgen-bench``).

Subcommands:
  run      time naive vs cached generation over depth/batch sweeps, CSV out
  speedup  turn a run CSV into a per-configuration speedup table
  verify   run the equivalence / trace / op-count / causality property suite

Op counts are the primary signal (exact, machine-checkable); wall times are
the secondary, hardware-dependent one.  Timing excludes network construction
and cache initialisation: states are warmed up before the timed window.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import statistics
import sys
import time

import numpy as np

from .dilated import (
    NetworkSpec,
    _check_int,
    build_network,
    incremental_init,
    incremental_step,
    naive_init,
    naive_step,
    receptive_field,
)
from .errors import InvalidParameterError
from .image2d import (
    ImageSpec,
    build_image_network,
    forward_image,
    image_incremental_init,
    image_incremental_step,
    image_naive_init,
    image_naive_step,
)
from .strided import (
    StridedPlan,
    build_strided_network,
    firing_trace,
    strided_incremental_init,
    strided_incremental_step,
    strided_naive_init,
    strided_naive_step,
)
from .tensor import DTYPE, OpCounter

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
# the engine table, and the rollout that generate, checks and timing run through
# ---------------------------------------------------------------------------

# family -> engine -> (init, step).  1D: init(network, counter) and
# step(network, state, x) -> y.  image2d: init(network, batch, counter) and
# step(network, state) -> (1, batch), the state reading the image it writes.
ENGINES = {
    "dilated": {
        "naive": (naive_init, naive_step),
        "cached": (incremental_init, incremental_step),
    },
    "strided": {
        "naive": (strided_naive_init, strided_naive_step),
        "cached": (strided_incremental_init, strided_incremental_step),
    },
    "image2d": {
        "naive": (image_naive_init, image_naive_step),
        "cached": (image_incremental_init, image_incremental_step),
    },
}


MAX_PRIME = 2**24  # values: a prime is copied into one float32 array up front


def _check_prime(prime) -> np.ndarray:
    """`prime` as a float32 array, if it is a 1-D sequence of at most MAX_PRIME
    finite real numbers (not bools); InvalidParameterError otherwise.

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
    if values is None or values.ndim != 1 or values.dtype.kind not in "iuf":
        raise InvalidParameterError(
            f"prime must be a 1-D sequence of real numbers, got {prime!r}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        values = values.astype(DTYPE)
    if not np.isfinite(values).all():
        raise InvalidParameterError("prime values must be finite in float32")
    return values


class Rollout:
    """`batch` sequences generated by one engine of ENGINES.

    1D families hold `batch` independent states.  At step t a sequence's
    input is `prime[t]` while t < len(prime), and its own previous output
    after that (0.0 at step 0 without a prime).  image2d holds one lockstep
    state and takes no input; the step after an image's last pixel starts a
    fresh image.  The states step one after another, so they share one
    counter.
    """

    def __init__(self, network, engine: str, batch: int = 1, prime=(), counter=None):
        family = network.spec.family
        if engine not in ENGINES[family]:
            raise InvalidParameterError(f"engine must be naive or cached, got {engine!r}")
        batch = _check_int("batch", batch, 1)
        self.network, self.batch = network, batch
        self.init, self.step = ENGINES[family][engine]
        self.counter = OpCounter() if counter is None else counter
        self.prime = _check_prime(prime)
        if family == "image2d":
            if len(self.prime):
                raise InvalidParameterError("image2d engines take no input, so no prime")
            self.length = network.spec.height * network.spec.width
            self.states = [self.init(network, batch, self.counter)]
        else:
            self.length = None  # 1D sequences have no end
            self.states = [self.init(network, self.counter) for _ in range(batch)]
            self.xs = [np.float32(0.0)] * batch  # each sequence's next input
        self.t = 0  # steps taken (image2d: into the current image)

    def steps(self, n_steps: int | None) -> int:
        """n_steps, or one whole image when it is None."""
        if n_steps is not None:
            return _check_int("n_steps", n_steps, 1)
        if self.length is None:
            raise InvalidParameterError("n_steps is required: a 1D sequence has no end")
        return self.length

    def advance(self, n: int, out: np.ndarray | None = None) -> None:
        """Advance every sequence n steps; out[i, j] gets sequence j's output at step i."""
        net, step = self.network, self.step
        if self.length is not None:
            for i in range(n):
                if self.t == self.length:
                    self.states = [self.init(net, self.batch, self.counter)]
                    self.t = 0
                y = step(net, self.states[0])
                self.t += 1
                if out is not None:
                    out[i] = y[0]
            return
        forced = self.prime[self.t : self.t + n]
        for j, state in enumerate(self.states):
            x = self.xs[j]
            for i in range(n):
                if i < len(forced):
                    x = forced[i]
                x = step(net, state, x)
                if out is not None:
                    out[i, j] = x
            self.xs[j] = x
        self.t += n


def generate(network, n_steps=None, *, engine="cached", batch=1, prime=(), counter=None):
    """Generate n_steps outputs of `batch` sequences: float32 (n_steps, batch).

    Row i holds the i-th output of every sequence.  1D networks are
    teacher-forced through `prime` and then fed their own outputs; the
    outputs of the first len(prime) - 1 steps are dropped, so row 0 is the
    prediction after the whole prime, a 1-D sequence of at most MAX_PRIME
    finite real numbers.  For image2d row i is raster pixel i,
    and `n_steps` defaults to one whole image.  `engine` is "naive" or
    "cached"; the two give identical 1D outputs and image outputs within
    float32 noise.  `counter` receives the op counts of the whole run.
    """
    rollout = Rollout(network, engine, batch, prime, counter)
    n = rollout.steps(n_steps)
    rollout.advance(max(len(rollout.prime) - 1, 0))
    out = np.empty((n, rollout.batch), dtype=DTYPE)
    rollout.advance(n, out)
    return out


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
    `mean_us` summarise it over the repeats.  `steps=None` times whole
    images.  Warm-up is excluded from the timed window.  It defaults to 4
    steps, or one image for image2d; for the naive dilated engine it spans
    one receptive field, because earlier steps evaluate pruned trees and are
    cheaper than the steady state being measured.
    """
    rollout = Rollout(network, engine, batch)
    steps = rollout.steps(steps)
    if warmup is None:
        warmup = rollout.length or 4
        if engine == "naive" and network.spec.family == "dilated":
            warmup = max(warmup, receptive_field(network.spec))
    rollout.advance(warmup)
    macs0 = rollout.counter.macs
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rollout.advance(steps)
        times.append((time.perf_counter() - t0) * 1e6 / steps)
    return {
        "min_us": min(times),
        "median_us": statistics.median(times),
        "mean_us": statistics.fmean(times),
        "macs_per_step": (rollout.counter.macs - macs0) // (repeats * steps),
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


def _sample_networks(family: str, n: int, seed: int = 0, sizes=((8, 8),)) -> list:
    """n seeded random networks of one family (strided ones cycle through
    `STRIDED_SAMPLES`; for image2d, n per image size without and n with the
    row pair)."""
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
            h, w, channels=4, n_layers=3, row_pair=row_pair, seed=int(rng.integers(2**32))
        ))
        for h, w in sizes
        for row_pair in (False, True)
        for _ in range(n)
    ]


def measure_nodes_per_step(network, engine: str, n_steps: int = 4) -> int:
    """Exact steady-state node evaluations per generated sample of a 1D network.

    Warm-up covers one receptive field so the naive engine's dependency
    tree no longer touches the zero-padded region (early trees are cheaper).
    """
    rollout = Rollout(network, engine)
    rollout.advance(receptive_field(network.spec))
    before = rollout.counter.node_evals
    rollout.advance(n_steps)
    total = rollout.counter.node_evals - before
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


def _forward(network, inputs: np.ndarray) -> np.ndarray:
    """Outputs for fixed inputs, flat in generation order: the naive 1D
    engine stepped over `inputs` without feedback, or one image pass."""
    if network.spec.family == "image2d":
        return forward_image(network, inputs).ravel()
    init, step = ENGINES[network.spec.family]["naive"]
    state = init(network)
    return np.array([step(network, state, v) for v in inputs], dtype=DTYPE)


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
        base = _forward(network, x)
        for p in range(x.size):
            xp = x.copy()
            xp.reshape(-1)[p] += 1.0
            upto = p + 1 - reads_own
            if not np.array_equal(base[:upto], _forward(network, xp)[:upto]):
                return False, (
                    f"{network.spec.family} outputs before {upto} changed by a perturbation at {p}"
                )
    return True, "all families: outputs at t invariant to perturbations after t"


def check_constant_memory(n_steps: int = 1000):
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=3, seed=5)
    net = build_network(spec)
    state = incremental_init(net)
    expected = sum(l.dilation * l.weights.in_channels for l in net.layers)
    x = np.float32(0.0)
    sizes = set()
    for t in range(n_steps):
        x = incremental_step(net, state, x)
        if t in (10, n_steps // 2, n_steps - 1):
            sizes.add(state.cached_values())
    if sizes != {expected}:
        return False, f"cache storage {sizes} != analytic {expected}"
    return True, f"{expected} stored values, constant over {n_steps} steps"


def run_verify(quick: bool, out=None) -> int:
    """Run every property check, one machine-readable line each; 0 iff all pass."""
    out = sys.stdout if out is None else out
    image_sizes = ((8, 8),) if quick else ((8, 8), (12, 12))
    checks = [
        ("dilated-equivalence", lambda: check_equivalence(
            _sample_networks("dilated", 10 if quick else 40), 64 if quick else 192)),
        ("op-count-law", lambda: check_op_count_law(6 if quick else 8)),
        ("golden-trace", check_golden_trace),
        ("strided-equivalence", lambda: check_equivalence(
            _sample_networks("strided", 5 if quick else 20), 60 if quick else 160)),
        ("image-equivalence", lambda: check_equivalence(
            _sample_networks("image2d", 3 if quick else 8, sizes=image_sizes))),
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


def _parse_layers(text: str) -> list[int]:
    """Layer counts from `n`, an inclusive range `a..b`, or a comma list of either."""
    values = []
    for tok in text.split(","):
        lo, dots, hi = tok.partition("..")
        try:
            a = int(lo)
            b = int(hi) if dots else a
        except ValueError:
            raise ValueError(f"bad --layers {text!r}: {tok!r} is not n or a..b") from None
        if a < 1 or b < a:
            raise ValueError(f"bad --layers {text!r}: {tok!r} needs 1 <= a <= b")
        values.extend(range(a, b + 1))
    return values


def _parse_batch(text: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok]
    if not values or any(v < 1 for v in values):
        raise ValueError(f"bad batch list {text!r}")
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
    """Every sweep point, built before any output so that a bad spec writes nothing."""
    layers = args.layers_list
    steps = min(args.steps, 32) if args.quick else args.steps
    if args.model == "strided" and len(layers) > 1:
        print("note: --layers is ignored for the strided model", file=sys.stderr)
        layers = [len(HOURGLASS_STRIDES)]
    return [_build_for(args, L, steps) for L in layers]


def run_bench(args, points, out=None) -> int:
    """Time the `_sweep_points` of `args` and write one CSV row per point, batch and mode."""
    out = sys.stdout if out is None else out
    repeats = args.repeats
    warmup = None
    if args.quick:
        repeats = min(repeats, 3)
        warmup = 16  # quick mode also skips the full steady-state warm-up
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


def speedup_report(csv_lines, out=None) -> int:
    """Pair naive/cached rows and print per-configuration speedups."""
    out = sys.stdout if out is None else out
    import csv as _csv

    reader = _csv.DictReader(csv_lines)
    rows = list(reader)
    if not rows:
        print("error: empty CSV", file=sys.stderr)
        return 1
    absent = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
    if absent:
        print(f"error: CSV lacks column(s) {','.join(absent)}", file=sys.stderr)
        return 1
    table = {}
    for row in rows:
        key = (row["model"], row["L"], row["stacks"], row["batch"], row["steps"])
        text = row["wall_us_per_step"]
        try:
            us = float(text)
        except (TypeError, ValueError):  # TypeError: a short row leaves the field None
            us = math.nan
        if not (math.isfinite(us) and us > 0):
            print(
                f"error: wall_us_per_step must be a positive number, got {text!r} "
                f"(model={key[0]} L={key[1]} stacks={key[2]} batch={key[3]} mode={row['mode']})",
                file=sys.stderr,
            )
            return 1
        table.setdefault(key, {})[row["mode"]] = us
    missing = [k for k, v in table.items() if not {"naive", "cached"} <= set(v)]
    if missing:
        for key in missing:
            have = ",".join(sorted(table[key]))
            print(
                "error: unmatched pair "
                f"model={key[0]} L={key[1]} stacks={key[2]} batch={key[3]} (have: {have})",
                file=sys.stderr,
            )
        return 1
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
    run.add_argument("--batch", default="1", help="comma-separated batch sizes")
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
    """`path` opened in `mode`, "-" meaning `std`; an unopenable path is a usage error."""
    if path == "-":
        return contextlib.nullcontext(std)
    try:
        return open(path, mode)
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
        args.layers_list = _parse_layers(args.layers)
        args.batch_list = _parse_batch(args.batch)
    except ValueError as exc:
        parser.error(str(exc))
    if args.steps < 1 or args.repeats < 1:
        parser.error("--steps and --repeats must be >= 1")
    try:
        points = _sweep_points(args)
    except InvalidParameterError as exc:
        parser.error(str(exc))
    with _open(parser, args.csv, "w", sys.stdout) as fh:
        return run_bench(args, points, out=fh)


if __name__ == "__main__":
    sys.exit(main())
