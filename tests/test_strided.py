"""Strided-family tests: firing-trace golden timeline, burst scheduling,
naive/cached equivalence, and pending-buffer conservation."""

import copy
import dataclasses
import importlib.util
import pickle
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from convgen import (
    InvalidParameterError,
    NetworkSpec,
    OpCounter,
    ScheduleViolationError,
    StridedPlan,
    UnsupportedTopologyError,
    build_network,
    firing_trace,
    format_trace,
    generate,
    receptive_field,
)
from convgen import dilated, strided
from convgen.strided import (
    StridedNetwork,
    _bind,
    parse_stride,
    strided_incremental_init,
    strided_incremental_step,
    strided_naive_init,
    strided_naive_step,
)
from convgen.tensor import CEILINGS
from oracles import strided_input_positions, strided_receptive_field_sets

HOURGLASS = ("down2", "down2", "up2", "up2")


def hourglass_spec(seed=0, channels=3):
    return NetworkSpec("strided", channels=channels, strides=HOURGLASS, seed=seed)


def hourglass_plan():
    return StridedPlan.from_spec(hourglass_spec())


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def test_parse_stride_tokens():
    assert parse_stride("down2") == ("down", 2)
    assert parse_stride("up16") == ("up", 16)
    # factors run to the "period" ceiling; leading zeros are no digits, and a
    # factor of more digits is refused before int() reads them
    assert CEILINGS["period"][0] == 2**12 and parse_stride("up4096") == ("up", 4096)
    assert parse_stride("down" + "0" * 5000 + "2") == ("down", 2)
    for bad in ("sideways2", "down", "2", "down-2", "down0", "down4097", "up" + "9" * 5000):
        with pytest.raises(InvalidParameterError):
            parse_stride(bad)


def test_unbalanced_plans_rejected():
    with pytest.raises(UnsupportedTopologyError):
        StridedPlan.from_spec(NetworkSpec("strided", strides=("down2", "down2", "up2")))
    with pytest.raises(UnsupportedTopologyError):
        StridedPlan.from_spec(NetworkSpec("strided", strides=("up2", "down2")))
    # balanced, but a prefix leaves a fractional update period
    for strides in (("up2",), ("down2", "up4"), ("down2", "up4", "down2")):
        with pytest.raises(UnsupportedTopologyError):
            StridedPlan.from_spec(NetworkSpec("strided", strides=strides))


def plan_of(*strides):
    return StridedPlan.from_spec(NetworkSpec("strided", strides=strides))


@pytest.mark.parametrize("spec_args", [
    dict(strides=("down2",) * 64 + ("up2",) * 64),  # a period of 2**64 steps
    dict(strides=("down2" + "0" * 4999, "up2")),  # a factor of 5000 digits
    dict(strides=("down2", "up2"), kernel_size=2**40),  # 2**40 + 1 weight floats
], ids=["down2x64-up2x64", "5000-digit-factor", "kernel-2**40"])
def test_unbuildable_strided_network_is_refused_before_it_allocates(monkeypatch, spec_args):
    spec = NetworkSpec("strided", **spec_args)
    memo = list(dilated._DRAWS)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew weights"))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(InvalidParameterError):
            build_network(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 and time.perf_counter() - start < 1.0
    assert list(dilated._DRAWS) == memo  # nothing memoised


def test_plan_period():
    plan = hourglass_plan()
    assert plan.period == 4
    assert plan.nodes == ((1, 1, 2, 4), (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0))
    mixed = plan_of("down2", "up2", "down2", "up2")
    assert mixed.period == 2
    assert mixed.nodes == ((1, 2, 1, 2), (0, 0, 0, 0))
    deep = plan_of("down2", "down4", "up4", "up2")
    assert deep.period == 8
    assert deep.nodes == ((1, 1, 4, 8),) + ((0,) * 4, (1, 0, 0, 0)) * 3 + ((0,) * 4,)
    # stride-1 layers fire on every step
    assert plan_of(*("down1",) * 5).nodes == ((1,) * 5,)
    # strides that do not nest: the period is the least common one, not the largest stride
    assert plan_of("down2", "up2", "down3", "up3").period == 6
    assert plan_of("down4", "up4", "down3", "up3").period == 12


def test_strided_receptive_field():
    assert receptive_field(hourglass_spec()) == 4
    # 3*(k-1)+1 inputs for the hourglass, as perturbing inputs shows; at
    # k=20 the span outgrows the window the count was once clipped to
    for k, rf in ((1, 1), (3, 7), (20, 58)):
        assert receptive_field(NetworkSpec("strided", strides=HOURGLASS, kernel_size=k)) == rf
    # a two-tap kernel at stride 4 skips two of every four inputs, so the
    # bottleneck sees 2 of its layer inputs -> 4 raw inputs, not 8
    deep = NetworkSpec("strided", strides=("down2", "down4", "up4", "up2"))
    assert receptive_field(deep) == 4


def test_receptive_field_of_a_huge_kernel_is_closed_form():
    # the merged intervals take the hourglass at k = 16384 in under 0.1 s (the
    # position sets took 42 s); the sets give 3*(k-1)+1 at k = 512 too
    spec = NetworkSpec("strided", strides=HOURGLASS, kernel_size=16384)
    t0 = time.perf_counter()
    rf = receptive_field(spec)
    assert time.perf_counter() - t0 < 0.1
    assert rf == 3 * (16384 - 1) + 1
    assert strided_receptive_field_sets(StridedPlan.from_spec(spec), 512) == 3 * (512 - 1) + 1


# ---------------------------------------------------------------------------
# golden trace
# ---------------------------------------------------------------------------

GOLDEN_TRACE_TEXT = """\
t=0 layer=1 nodes=1 emit=fresh
t=0 layer=2 nodes=1 emit=fresh
t=0 layer=3 nodes=2 emit=fresh
t=0 layer=4 nodes=4 emit=fresh
t=1 layer=- nodes=0 emit=buffered
t=2 layer=1 nodes=1 emit=buffered
t=3 layer=- nodes=0 emit=buffered
t=4 layer=1 nodes=1 emit=fresh
t=4 layer=2 nodes=1 emit=fresh
t=4 layer=3 nodes=2 emit=fresh
t=4 layer=4 nodes=4 emit=fresh
t=5 layer=- nodes=0 emit=buffered"""


def test_hourglass_golden_trace():
    trace = firing_trace(hourglass_plan(), 6)
    assert format_trace(trace) == GOLDEN_TRACE_TEXT
    # burst at t=0 computes the first four outputs
    assert trace[0].nodes == (1, 1, 2, 4)
    assert trace[1].nodes == (0, 0, 0, 0)
    assert trace[2].nodes == (1, 0, 0, 0)
    assert trace[3].nodes == (0, 0, 0, 0)
    assert trace[4].nodes == trace[0].nodes and trace[4].emit == trace[0].emit
    assert trace[5].nodes == trace[1].nodes and trace[5].emit == trace[1].emit


def test_trace_output_conservation():
    trace = firing_trace(hourglass_plan(), 40)
    assert all(rec.outputs_emitted == 1 for rec in trace)
    assert sum(rec.outputs_emitted for rec in trace[:4]) == 4


def test_trace_periodicity_ten_periods():
    plan = hourglass_plan()
    trace = firing_trace(plan, 11 * plan.period)
    for t in range(10 * plan.period):
        assert trace[t].nodes == trace[t + plan.period].nodes
        assert trace[t].emit == trace[t + plan.period].emit


def test_trace_amortized_nodes_constant():
    plan = hourglass_plan()
    trace = firing_trace(plan, 12 * plan.period)
    per_period = [
        sum(sum(rec.nodes) for rec in trace[p * 4 : (p + 1) * 4]) for p in range(12)
    ]
    assert len(set(per_period)) == 1  # 9 nodes per period, every period


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_equivalence(seed):
    net = build_network(hourglass_spec(seed=seed))
    a = generate(net, 100, engine="naive")
    b = generate(net, 100)
    assert np.isfinite(a).all()
    assert np.array_equal(a, b)


def test_equivalence_mixed_topology():
    spec = NetworkSpec("strided", channels=2, strides=("down2", "up2", "down2", "up2"), seed=6)
    net = build_network(spec)
    assert np.array_equal(generate(net, 60, engine="naive"), generate(net, 60))


def test_equivalence_input_skipping_topology():
    # stride 4 with two-tap kernels: the second layer skips inputs entirely
    spec = NetworkSpec("strided", channels=2, strides=("down2", "down4", "up4", "up2"), seed=13)
    net = build_network(spec)
    assert np.array_equal(generate(net, 80, engine="naive"), generate(net, 80))


@pytest.mark.parametrize("prime_len", [1, 5, "period+3"])
@pytest.mark.parametrize(
    "strides, kernel_size", [(HOURGLASS, 2), (("down2", "up2", "down3", "up3"), 3)],
    ids=["hourglass", "down2-up2-down3-up3-k3"],
)
def test_equivalence_with_prime(strides, kernel_size, prime_len):
    # teacher forcing runs the burst schedule on given inputs, from any phase on
    net = build_network(NetworkSpec(
        "strided", kernel_size=kernel_size, channels=3, strides=strides, seed=8
    ))
    if prime_len == "period+3":
        prime_len = net.plan.period + 3
    prime = np.random.default_rng(prime_len).uniform(-1, 1, prime_len)
    a = generate(net, 40, engine="naive", prime=prime)
    b = generate(net, 40, prime=prime)
    assert np.isfinite(a).all()
    assert np.array_equal(a, b)
    assert not np.array_equal(b, generate(net, 40))  # the prime was fed


def test_zero_network_generates_zeros():
    import convgen.strided as st
    from convgen import ConvWeights

    spec = hourglass_spec()
    plan = StridedPlan.from_spec(spec)
    layers = []
    for i, (kind, s) in enumerate(plan.layers):
        in_ch = 1 if i == 0 else 2
        out_ch = 1 if i == len(plan.layers) - 1 else 2
        layers.append(
            st.StridedLayer(
                kind, s,
                ConvWeights(np.zeros((out_ch, in_ch, 2), np.float32), np.zeros(out_ch, np.float32)),
                "linear" if i == len(plan.layers) - 1 else "tanh",
            )
        )
    net = st.StridedNetwork(spec, plan, tuple(layers))
    assert not generate(net, 20, engine="naive").any()
    assert not generate(net, 20).any()


def test_naive_matches_monolithic_slice():
    # step-wise naive values equal one forward pass over the final input window
    net = build_network(hourglass_spec(seed=3))
    state = strided_naive_init(net)
    outs = []
    x = np.float32(0.0)
    for _ in range(40):
        y = strided_naive_step(net, state, x)
        outs.append(y)
        x = y
    # replay: fresh state fed the recorded input stream gives the same outputs
    replay_state = strided_naive_init(net)
    inputs = [np.float32(0.0)] + [np.float32(v) for v in outs[:-1]]
    replay = [strided_naive_step(net, replay_state, v) for v in inputs]
    assert np.array_equal(np.array(outs), np.array(replay))


def test_incremental_emits_one_output_per_step():
    net = build_network(hourglass_spec(seed=1))
    state = strided_incremental_init(net)
    x = np.float32(0.0)
    for t in range(40):
        y = strided_incremental_step(net, state, x)
        assert np.isfinite(y)
        assert state.t == t + 1
        x = y


def test_incremental_node_counts_follow_trace():
    net = build_network(hourglass_spec(seed=2))
    plan = net.plan
    state = strided_incremental_init(net)
    trace = firing_trace(plan, 12)
    x = np.float32(0.0)
    for rec in trace:
        before = state.counter.node_evals
        x = strided_incremental_step(net, state, x)
        assert state.counter.node_evals - before == sum(rec.nodes)


def test_engine_state_is_constant_size():
    net = build_network(hourglass_spec(seed=4))
    state = strided_incremental_init(net)
    x = np.float32(0.0)
    sizes = set()
    for t in range(64):
        x = strided_incremental_step(net, state, x)
        if t % 4 == 3:  # compare at equal period phase
            sizes.add(state.cached_values())
    assert len(sizes) == 1


def test_determinism():
    net = build_network(hourglass_spec(seed=9))
    assert np.array_equal(generate(net, 50), generate(net, 50))


def test_trace_requires_positive_horizon():
    with pytest.raises(InvalidParameterError):
        firing_trace(hourglass_plan(), 0)


def test_state_holds_no_weights():
    net = build_network(hourglass_spec(seed=12, channels=32))
    state = strided_incremental_init(net)
    x = np.float32(0.0)
    for _ in range(5):
        x = strided_incremental_step(net, state, x)
    assert state.cached_values() == 1 + 32 + 3  # two down windows, three pending outputs
    assert len(pickle.dumps(state)) < 4096  # the C=32 weights alone pickle to ~50 KB


@pytest.mark.parametrize("fork_at", [5, 22])
def test_forked_state_continues_bit_exact(fork_at):
    # t=5 and t=22 are mid-period, with outputs waiting in the pending queue
    net = build_network(hourglass_spec(seed=12))
    whole = generate(net, 64)[:, 0]
    state = strided_incremental_init(net)
    x = np.float32(0.0)
    for _ in range(fork_at):
        x = strided_incremental_step(net, state, x)
    assert state.pending
    fork = copy.deepcopy(state)
    xs = {"state": x, "fork": x}
    outs = {"state": [], "fork": []}
    for _ in range(64 - fork_at):
        for name, st in (("state", state), ("fork", fork)):  # interleaved
            xs[name] = strided_incremental_step(net, st, xs[name])
            outs[name].append(xs[name])
    for name in outs:
        assert np.array_equal(np.array(outs[name], np.float32), whole[fork_at:])
    assert fork.counter.snapshot() == state.counter.snapshot()
    # a pickled state rebuilds its views over its own buffer and continues bit-exact
    state = strided_incremental_init(net)
    x = np.float32(0.0)
    for _ in range(fork_at):
        x = strided_incremental_step(net, state, x)
    blob = pickle.dumps(state)
    assert len(blob) < 4096
    restored = pickle.loads(blob)
    assert not np.shares_memory(restored.buf, state.buf)
    assert restored.cached_values() == state.cached_values()
    got = []
    for _ in range(64 - fork_at):
        x = strided_incremental_step(net, restored, x)
        got.append(x)
    assert np.array_equal(np.array(got, np.float32), whole[fork_at:])
    assert state.t == fork_at  # stepping the copy left the original alone


@pytest.mark.parametrize(
    "strides, kernel_size", [(HOURGLASS, 2), (("down2", "up2", "down3", "up3"), 3)]
)
def test_state_continues_on_an_equal_network_rebuilt_by_pickle(strides, kernel_size):
    # each network binds its op table to its own weights, on its first step:
    # a state stepped partway and continued on a distinct but equal network
    # stays bit-exact
    net = build_network(NetworkSpec(
        "strided", kernel_size=kernel_size, channels=3, strides=strides, seed=11
    ))
    other = pickle.loads(pickle.dumps(net))
    assert other == net and other is not net
    for network in (net, other):  # building binds nothing and builds no phase weights
        assert network._ops is None
        assert not any("phases" in vars(layer.weights) for layer in network.layers)
    runs = {}
    for split in (None, 5):
        state, x, ys = strided_incremental_init(net), np.float32(0.25), []
        for t in range(40):
            x = strided_incremental_step(net if split is None or t < split else other, state, x)
            ys.append(x)
        runs[split] = ys, state.counter.snapshot()
    assert runs[5][0] == runs[None][0]  # bit for bit
    assert runs[5][1] == runs[None][1]
    for network in (net, other):  # a down node's layer weights, an up node's phases
        bound = {id(w) for _, ops, *_ in network._ops for w, *_ in ops if w is not None}
        assert bound == {id(w) for layer in network.layers for w in (
            (layer.weights,) if layer.kind == "down" else layer.weights.phases)}


def test_tampered_plan_raises_before_any_output():
    net = build_network(hourglass_spec(seed=3))
    plan = net.plan
    swapped = dataclasses.replace(plan, nodes=plan.nodes[1:] + plan.nodes[:1])
    short = dataclasses.replace(plan, nodes=plan.nodes[:2], period=2)  # the period does not close
    # the program is compiled when the network is built, so no network, state
    # or output exists for a tampered plan
    for tampered in (swapped, short):
        with pytest.raises(ScheduleViolationError):
            StridedNetwork(net.spec, tampered, net.layers)
    # a copy or a pickle is rebuilt through the constructor and compiles again
    for other in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        assert other == net and other._program == net._program
        assert generate(other, 8).tolist() == generate(net, 8).tolist()


# ---------------------------------------------------------------------------
# random topologies
# ---------------------------------------------------------------------------


def supported(strides) -> bool:
    """The plan rules, restated: balanced, and an integral update period at every prefix."""
    running = Fraction(1)
    for kind, s in map(parse_stride, strides):
        running = running * s if kind == "down" else running / s
        if running.denominator != 1:
            return False
    return running == 1


def test_plan_accepts_exactly_the_supported_topologies():
    rng = np.random.default_rng(5)
    for _ in range(400):
        strides = tuple(
            f"{rng.choice(('down', 'up'))}{rng.integers(1, 5)}" for _ in range(rng.integers(1, 6))
        )
        if supported(strides):
            StridedPlan.from_spec(NetworkSpec("strided", strides=strides))
        else:
            with pytest.raises(UnsupportedTopologyError):
                StridedPlan.from_spec(NetworkSpec("strided", strides=strides))


def random_balanced(rng) -> tuple[str, ...]:
    """Factors 1-4, 2-5 layers: the down factors, the same product in up
    factors, and stride-1 padding, shuffled until the plan rules hold."""
    while True:
        downs = [int(f) for f in rng.integers(2, 5, size=rng.integers(1, 3))]
        ups = [u for f in downs for u in ((2, 2) if f == 4 and rng.random() < 0.3 else (f,))]
        tokens = [f"down{f}" for f in downs] + [f"up{f}" for f in ups]
        if len(tokens) > 5:
            continue
        pad = rng.integers(0, 6 - len(tokens))
        tokens += [f"{rng.choice(('down', 'up'))}1" for _ in range(pad)]
        strides = tuple(map(str, rng.permutation(tokens)))
        if len(strides) >= 2 and supported(strides):
            return strides


@cache
def _benchmark_adapters():
    """perfbench/adapters.py, loaded unchanged."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "adapters.py"
    spec = importlib.util.spec_from_file_location("perfbench_adapters", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


_rng = np.random.default_rng(2024)
# (strides, kernel_size of the down layers): the named topologies also pin k != 2
TOPOLOGIES = [
    (("down2", "up2", "down3", "up3"), 1),
    (("down3", "up3", "down2", "up2"), 3),
    (("down4", "up4", "down3", "up3"), 5),
] + [(random_balanced(_rng), 2) for _ in range(16)]


@pytest.mark.parametrize(
    "strides, kernel_size", TOPOLOGIES, ids=["-".join(s) for s, _ in TOPOLOGIES]
)
def test_receptive_field_intervals_equal_the_position_sets(strides, kernel_size):
    plan = StridedPlan.from_spec(NetworkSpec("strided", strides=strides))
    for k in range(1, 6):
        assert strided.strided_receptive_field(plan, k) == strided_receptive_field_sets(plan, k), k


@pytest.mark.parametrize(
    "strides, kernel_size", TOPOLOGIES, ids=["-".join(s) for s, _ in TOPOLOGIES]
)
def test_random_balanced_topology(strides, kernel_size):
    net = build_network(NetworkSpec(
        "strided", kernel_size=kernel_size, channels=2, strides=strides, seed=len(strides)
    ))
    plan = net.plan
    n = 3 * plan.period + 1
    trace = firing_trace(plan, n)
    state = strided_incremental_init(net)
    cached, x = [], np.float32(0.0)
    for rec in trace:
        before = state.counter.node_evals
        x = strided_incremental_step(net, state, x)
        assert state.counter.node_evals - before == sum(rec.nodes)
        cached.append(x)
    ys = np.array([cached], np.float32)
    assert np.array_equal(ys[0], generate(net, n, engine="naive")[:, 0])
    # every up node is conv1d_point over a phase, whichever engine runs it:
    # `StridedNetwork.forward` and perfbench's strided oracle, over the inputs
    # the cached engine was fed, give its outputs bit for bit
    xs = np.concatenate(([[0]], ys[:, :-1]), axis=1).astype(np.float32)
    assert net.forward(xs[0]).tobytes() == ys[0].tobytes()
    adapters = _benchmark_adapters()
    assert adapters.Strided(strides, 2).oracle(adapters.State(net, [state]), xs, ys).all()
    steps = [(rec.nodes, rec.emit) for rec in trace]
    assert steps[plan.period :] == steps[: -plan.period]
    for p in range(1, plan.period):
        assert steps[p:] != steps[:-p], f"trace also repeats with {p} < period {plan.period}"


@pytest.mark.parametrize(
    "strides, kernel_size", TOPOLOGIES, ids=["-".join(s) for s, _ in TOPOLOGIES]
)
def test_naive_window_reaches_the_earliest_input_read(strides, kernel_size):
    # the window is one period D past the least multiple of D that reaches
    # back to the earliest input any output reads, by the position sets
    plan = StridedPlan.from_spec(NetworkSpec("strided", strides=strides))
    D = np.prod([s for kind, s in plan.layers if kind == "down"], dtype=int)
    for k in range(1, 6):
        back = max(0, *(-min(strided_input_positions(plan.layers, k, t)) for t in range(D)))
        assert strided._naive_window(plan.layers, k) == (-(-back // D) * D + D, D), k


@pytest.mark.parametrize(
    "strides, kernel_size", TOPOLOGIES, ids=["-".join(s) for s, _ in TOPOLOGIES]
)
def test_naive_window_has_a_constant_cost(strides, kernel_size):
    # every step runs the same forward over the window, also long after it
    # first slides, and still gives the cached engine's outputs bit for bit
    net = topology_network(strides, kernel_size)
    size, D = strided._naive_window(net.plan.layers, kernel_size)
    n = 3 * size + D
    state, deltas, x = strided_naive_init(net), set(), np.float32(0.0)
    ys = []
    for _ in range(n):
        before = state.counter.snapshot()
        x = strided_naive_step(net, state, x)
        deltas.add(tuple(np.subtract(state.counter.snapshot(), before)))
        ys.append(x)
    assert len(deltas) == 1
    assert state.start == n - size  # a multiple of D: the window holds the last `size` inputs
    assert np.array(ys).tobytes() == generate(net, n)[:, 0].tobytes()


def test_naive_state_has_a_constant_size():
    net = build_network(hourglass_spec(seed=2, channels=4))
    size, _ = strided._naive_window(net.plan.layers, 2)
    assert size == 8  # receptive field 4, one period of 4 more

    def pickled_at(t):
        counter = OpCounter()  # counts of one pickled width at both t
        counter.add(2**20, 2**20)
        state = strided_naive_init(net, counter)
        for v in np.linspace(-1, 1, t, dtype=np.float32):
            strided_naive_step(net, state, v)
        assert state.cached_values() == size
        return len(pickle.dumps(state))

    assert pickled_at(size + 3) == pickled_at(8 * size)


def topology_network(strides, kernel_size):
    return build_network(NetworkSpec(
        "strided", kernel_size=kernel_size, channels=2, strides=strides, seed=len(strides)
    ))


@pytest.mark.parametrize(
    "strides, kernel_size", TOPOLOGIES, ids=["-".join(s) for s, _ in TOPOLOGIES]
)
def test_compiled_phase_counts_match_plan(strides, kernel_size):
    # the compiled op table computes, per phase and layer, the nodes the plan says
    net = topology_network(strides, kernel_size)
    phases = net._program[3]
    compiled = tuple(
        tuple(sum(code in ("down", "up") and li == i for code, li, *_ in ops)
              for i in range(len(strides)))
        for _, ops, *_ in phases
    )
    assert compiled == net.plan.nodes
    # each bound phase carries its nodes' totals, which the step counts once
    per_layer = [layer.weights.macs if layer.kind == "down"
                 else layer.weights.out_channels * layer.weights.in_channels
                 for layer in net.layers]
    for (_, ops, macs, nodes), expected in zip(_bind(net), net.plan.nodes):
        assert nodes == sum(expected)
        assert macs == sum(n * m for n, m in zip(expected, per_layer))
        assert macs == sum(w.macs for w, *_ in ops if w is not None)  # one-tap up phases


@pytest.mark.parametrize(
    "strides, kernel_size", TOPOLOGIES, ids=["-".join(s) for s, _ in TOPOLOGIES]
)
def test_compiled_phases_copy_only_overlapping_windows(strides, kernel_size):
    # an input goes straight to the tap of the first node reading it; a down
    # window moves data only when its taps overlap the next window's (k > s),
    # by one slide right after each of its fires
    net = topology_network(strides, kernel_size)
    geometry = [parse_stride(tok) for tok in strides]
    for _, ops, *_ in net._program[3]:
        if all(kernel_size <= s for kind, s in geometry if kind == "down"):
            assert all(code in ("down", "up") for code, *_ in ops)
        for i, (kind, s) in enumerate(geometry):
            fires = [j for j, (code, li, *_) in enumerate(ops) if code == kind and li == i]
            slides = [j for j, (code, li, *_) in enumerate(ops) if code == "slide" and li == i]
            if kind == "down" and kernel_size > s:
                assert slides == [j + 1 for j in fires]
            else:
                assert slides == []


@pytest.mark.parametrize(
    "strides, kernel_size", [(("down2", "up2", "down3", "up3"), 1),
                             (("down3", "up3", "down2", "up2"), 3)],
    ids=["k-below-s", "k-above-s"],
)
def test_forks_mid_period_continue_bit_exact(strides, kernel_size):
    # with k < s some inputs go to the dump row, with k > s windows slide; a
    # fork by deepcopy or pickle at every offset inside a period continues
    # bit-exact, interleaved with the original
    net = topology_network(strides, kernel_size)
    period = net.plan.period
    n = 4 * period
    whole = generate(net, n)[:, 0]
    for fork_at in range(period + 1, 2 * period):
        state, x = strided_incremental_init(net), np.float32(0.0)
        for _ in range(fork_at):
            x = strided_incremental_step(net, state, x)
        runs = {"state": state, "copy": copy.deepcopy(state),
                "pickle": pickle.loads(pickle.dumps(state))}
        assert not any(np.shares_memory(fork.buf, state.buf)
                       for name, fork in runs.items() if name != "state")
        xs = dict.fromkeys(runs, x)
        outs = {name: [] for name in runs}
        for _ in range(n - fork_at):
            for name, st in runs.items():
                xs[name] = strided_incremental_step(net, st, xs[name])
                outs[name].append(xs[name])
        for name in runs:
            assert np.array_equal(np.array(outs[name], np.float32), whole[fork_at:]), name
        assert len({st.counter.snapshot() for st in runs.values()}) == 1
