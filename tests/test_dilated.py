"""Dilated-family tests: builders, receptive fields, engine equivalence
(bit-exact), op-count laws against the dependency-graph oracle, priming,
and constant-memory generation."""

import copy
import dataclasses
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from convgen import (
    ConvWeights,
    ImageSpec,
    InvalidParameterError,
    NetworkSpec,
    OpCounter,
    ShapeError,
    build_image_network,
    build_network,
    build_strided_network,
    forward_full,
    forward_image,
    generate,
    receptive_field,
    receptive_field_2d,
)
from convgen import dilated
from convgen.bench import measure_nodes_per_step
from convgen.tensor import CEILINGS, conv1d_full
from convgen.dilated import (
    DilatedNetwork,
    LayerDef,
    incremental_init,
    incremental_step,
    naive_init,
    naive_step,
)
from oracles import (
    dependency_tree_nodes,
    per_node_naive_init,
    per_node_naive_step,
    perturbation_influence,
)


# ---------------------------------------------------------------------------
# spec + builder
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        NetworkSpec("gru")
    with pytest.raises(InvalidParameterError):
        NetworkSpec("dilated", stacks=0)
    with pytest.raises(InvalidParameterError):
        NetworkSpec("dilated", kernel_size=3)
    with pytest.raises(InvalidParameterError):
        NetworkSpec("strided")  # needs strides
    for k in (0, -1):
        with pytest.raises(InvalidParameterError):
            NetworkSpec("strided", strides=("down2", "up2"), kernel_size=k)
    for bad in (dict(seed=1.5), dict(stacks=2.5), dict(channels="4"), dict(seed=None),
                dict(layers_per_stack=True), dict(seed=2**64)):
        with pytest.raises(InvalidParameterError):
            NetworkSpec("dilated", **bad)
    for strides in (5, "down2", ("down2", 2), [None]):
        with pytest.raises(InvalidParameterError):
            NetworkSpec("strided", strides=strides)
    for text in ('{"family": "strided", "strides": 5}', '{"family": "strided", "strides": "down2"}',
                 '{"family": "dilated", "strides": 0}'):
        with pytest.raises(InvalidParameterError):
            NetworkSpec.from_json(text)
    assert NetworkSpec.from_json('{"family": "dilated", "strides": []}') == NetworkSpec("dilated")
    # the dilated family has no strides, so a strides list would only break equality
    with pytest.raises(InvalidParameterError):
        NetworkSpec("dilated", strides=("down2", "up2"))
    with pytest.raises(InvalidParameterError):
        NetworkSpec.from_json('{"family": "dilated", "strides": ["down2", "up2"]}')
    assert NetworkSpec("strided", strides=["down2", "up2"]).strides == ("down2", "up2")
    # no strided engine reads stacks or layers_per_stack, so they would only break equality
    for bad in (dict(stacks=3), dict(layers_per_stack=5), dict(stacks=3, layers_per_stack=5)):
        with pytest.raises(InvalidParameterError):
            NetworkSpec("strided", strides=("down2", "up2"), **bad)
    for text in ('{"family": "strided", "strides": ["down2", "up2"], "stacks": 3}',
                 '{"family": "strided", "strides": ["down2", "up2"], "layers": 5}'):
        with pytest.raises(InvalidParameterError):
            NetworkSpec.from_json(text)
    # numpy integers are integers, stored as int so that to_json works
    spec = NetworkSpec("dilated", stacks=np.int64(2), seed=np.uint64(2**64 - 1))
    assert type(spec.stacks) is int and type(spec.seed) is int
    assert spec == NetworkSpec("dilated", stacks=2, seed=2**64 - 1)


@pytest.mark.parametrize("spec_args", [
    dict(stacks=2, layers_per_stack=30, channels=8),  # ring over the ceiling
    dict(stacks=2, layers_per_stack=24, channels=1),  # table over the ceiling, ring under it
    dict(stacks=2, layers_per_stack=99999, channels=8),
    dict(stacks=1, layers_per_stack=2**64 - 1),
    dict(stacks=2**40, layers_per_stack=1),
    dict(stacks=2**26, layers_per_stack=1, channels=1),  # ring and table under, weights over
], ids=lambda a: "-".join(map(str, a.values())))
def test_unbuildable_network_is_refused_before_it_allocates(monkeypatch, spec_args):
    spec = NetworkSpec("dilated", **spec_args)
    memo = list(dilated._DRAWS)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew weights"))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="too large"):
            build_network(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 and list(dilated._DRAWS) == memo  # nothing memoised


@pytest.mark.parametrize("name, size", [  # ids: the constants these table entries replaced
    ("MAX_RING_FLOATS", lambda s: (s.stacks * (2**s.layers_per_stack - 1) - 1) * s.channels + 1),
    ("MAX_RING_TABLE", lambda s: 2 ** (s.layers_per_stack - 1) * (s.stacks * s.layers_per_stack - 1)),
])
def test_size_ceilings_are_the_ring_and_table_sizes(monkeypatch, name, size):
    # at a ceiling equal to a network's size, it builds; one below, it is refused
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=3, seed=1)
    net = build_network(spec)
    entry = {"MAX_RING_FLOATS": "state_floats", "MAX_RING_TABLE": "ring_table"}[name]
    assert size(spec) == {"state_floats": np.prod(net.ring_shape) + net.ring0_size,
                          "ring_table": dilated._ring_rows(tuple(spec.dilations()[1:])).size}[entry]
    monkeypatch.setitem(CEILINGS, entry, (size(spec), CEILINGS[entry][1]))
    assert build_network(spec) == net
    monkeypatch.setitem(CEILINGS, entry, (size(spec) - 1, CEILINGS[entry][1]))
    with pytest.raises(InvalidParameterError, match="too large"):
        build_network(spec)


@pytest.mark.parametrize("spec", [
    NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=3, seed=1),
    NetworkSpec("strided", kernel_size=3, channels=3, strides=("down3", "down2", "up2", "up3")),
], ids=lambda s: s.family)
def test_weight_ceiling_is_the_weights_size(monkeypatch, spec):
    # at a ceiling equal to a network's kernel and bias floats (a dilated
    # network's head included), it builds; one below, it is refused
    net = build_network(spec)
    size = sum(w.fused.size for w in [*(l.weights for l in net.layers), getattr(net, "head", None)]
               if w is not None)
    monkeypatch.setitem(CEILINGS, "weight_floats", (size, CEILINGS["weight_floats"][1]))
    assert build_network(spec) == net
    monkeypatch.setitem(CEILINGS, "weight_floats", (size - 1, CEILINGS["weight_floats"][1]))
    monkeypatch.setattr(dilated, "_DRAWS", {})
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew weights"))
    with pytest.raises(InvalidParameterError, match="too large"):
        build_network(spec)
    assert not dilated._DRAWS  # refused before its draw was planned


def test_dilation_pattern():
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=3)
    assert spec.dilations() == [1, 2, 4]
    spec2 = NetworkSpec("dilated", stacks=2, layers_per_stack=3)
    assert spec2.dilations() == [1, 2, 4, 1, 2, 4]


def test_build_deterministic():
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=8, seed=123)
    a, b = build_network(spec), build_network(spec)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights.kernel, lb.weights.kernel)
        assert np.array_equal(la.weights.bias, lb.weights.bias)
    assert np.array_equal(a.head.kernel, b.head.kernel)
    other = build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=8, seed=124))
    assert not np.array_equal(a.layers[0].weights.kernel, other.layers[0].weights.kernel)


NETWORK_SPECS = [
    NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=3, seed=8),
    NetworkSpec("strided", channels=3, strides=("down2", "down2", "up2", "up2"), seed=8),
    ImageSpec(6, 6, channels=3, n_layers=2, row_pair=True, seed=8),
]


def _all_weights(obj):
    """Every `ConvWeights` reachable through a network's dataclass fields and tuples."""
    if isinstance(obj, ConvWeights):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _all_weights(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _all_weights(getattr(obj, f.name))


@pytest.mark.parametrize("spec", NETWORK_SPECS, ids=lambda s: s.family)
def test_networks_compare_by_value(spec):
    a, b = build_network(spec), build_network(spec)
    assert a is not b and a == b
    assert a != build_network(dataclasses.replace(spec, seed=spec.seed + 1))


@pytest.mark.parametrize("spec", NETWORK_SPECS, ids=lambda s: s.family)
def test_equal_networks_hash_equal(spec):
    # networks hash by spec, which agrees with == because equal networks have equal specs
    a, b = build_network(spec), build_network(spec)
    assert hash(a) == hash(b)
    assert {a: "value"}[b] == "value"
    assert len({a, b}) == 1
    other = build_network(dataclasses.replace(spec, seed=spec.seed + 1))
    assert len({a, b, other}) == 2


def test_build_network_builds_every_family():
    for spec in NETWORK_SPECS:
        assert build_network(spec).spec == spec
    assert build_network(NETWORK_SPECS[2]) == build_image_network(NETWORK_SPECS[2])


_DILATED, _STRIDED, _IMAGE = NETWORK_SPECS
CROSS_FAMILY = [  # (function, its family's name, an object of another family)
    (forward_full, "dilated", lambda: build_network(_STRIDED)),
    (forward_full, "dilated", lambda: build_network(_IMAGE)),
    (forward_image, "image2d", lambda: build_network(_DILATED)),
    (forward_image, "image2d", lambda: build_network(_STRIDED)),
    (build_image_network, "image2d", lambda: _DILATED),
    (build_image_network, "image2d", lambda: _STRIDED),
    (receptive_field_2d, "image2d", lambda: _DILATED),
    (receptive_field_2d, "image2d", lambda: _STRIDED),
    (receptive_field, "strided", lambda: _IMAGE),
    (build_strided_network, "strided", lambda: _DILATED),
    (build_strided_network, "strided", lambda: _IMAGE),
    (build_network, "dilated", lambda: "dilated"),
]


@pytest.mark.parametrize("fn, family, make", CROSS_FAMILY,
                         ids=[f"{fn.__name__}-{i}" for i, (fn, _, _) in enumerate(CROSS_FAMILY)])
def test_another_familys_object_is_refused_by_family(fn, family, make):
    obj = make()
    got = getattr(getattr(obj, "spec", obj), "family", None)
    args = (obj, np.zeros((1, 6, 6, 1), np.float32)) if fn in (forward_full, forward_image) else (obj,)
    with pytest.raises(InvalidParameterError, match=family) as info:
        fn(*args)
    assert repr(got) in str(info.value)


def test_weight_scale_bound():
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=2, channels=16, seed=0)
    net = build_network(spec)
    for layer in net.layers:
        bound = 0.5 / np.sqrt(layer.weights.in_channels * 2)
        assert np.max(np.abs(layer.weights.kernel)) <= bound


def test_json_round_trip():
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=5, channels=4, seed=99)
    doc = spec.to_json()
    for key in ("family", "stacks", "layers", "kernel", "channels", "strides", "seed"):
        assert f'"{key}"' in doc
    assert NetworkSpec.from_json(doc) == spec
    sspec = NetworkSpec("strided", channels=3, strides=("down2", "down2", "up2", "up2"), seed=1)
    assert NetworkSpec.from_json(sspec.to_json()) == sspec
    with pytest.raises(InvalidParameterError, match="layerz"):
        NetworkSpec.from_json('{"family": "dilated", "layerz": 9}')
    for text in ("{}", "[1, 2]", "{", '"dilated"', '{"family": "dilated", "seed": null}'):
        with pytest.raises(InvalidParameterError):
            NetworkSpec.from_json(text)


# ---------------------------------------------------------------------------
# receptive field
# ---------------------------------------------------------------------------


def test_receptive_field_frozen_values():
    assert receptive_field(NetworkSpec("dilated", layers_per_stack=1)) == 2
    assert receptive_field(NetworkSpec("dilated", layers_per_stack=3)) == 8
    assert receptive_field(NetworkSpec("dilated", stacks=2, layers_per_stack=3)) == 15
    for L in range(1, 9):
        assert receptive_field(NetworkSpec("dilated", layers_per_stack=L)) == 2**L


def test_receptive_field_perturbation_oracle():
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=3, channels=2, seed=21)
    net = build_network(spec)
    T = 12
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, T).astype(np.float32)
    hits = perturbation_influence(lambda v: forward_full(net, v), x, t_out=T - 1)
    assert len(hits) == receptive_field(spec) == 8
    assert hits == list(range(T - 8, T))


def test_receptive_field_2d_rejected():
    with pytest.raises(InvalidParameterError):
        receptive_field(NetworkSpec("image2d"))


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def zero_network(L=2, channels=2):
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=L, channels=channels, seed=0)
    layers = []
    for idx, d in enumerate(spec.dilations()):
        in_ch = 1 if idx == 0 else channels
        layers.append(
            LayerDef(
                ConvWeights(np.zeros((channels, in_ch, 2), np.float32), np.zeros(channels, np.float32)),
                d,
            )
        )
    head = ConvWeights(np.zeros((1, channels, 1), np.float32), np.zeros(1, np.float32))
    return DilatedNetwork(spec, tuple(layers), head)


def test_zero_network_outputs_zero():
    net = zero_network()
    for engine in ("naive", "cached"):
        assert not generate(net, 10, engine=engine, prime=(1.0, -2.0, 3.0)).any()


def test_naive_matches_monolithic_forward():
    # step-wise naive generation == one conv1d_full pass over the whole stream
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=3, seed=17)
    net = build_network(spec)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, 20).astype(np.float32)
    state = naive_init(net)
    stepped = np.array([naive_step(net, state, v) for v in xs])
    assert np.array_equal(stepped, forward_full(net, xs))


def test_incremental_matches_monolithic_forward():
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=4, channels=2, seed=18)
    net = build_network(spec)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, 25).astype(np.float32)
    state = incremental_init(net)
    stepped = np.array([incremental_step(net, state, v) for v in xs])
    assert np.array_equal(stepped, forward_full(net, xs))


@pytest.mark.parametrize("seed", range(25))
def test_equivalence_bit_exact(seed):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(
        "dilated",
        stacks=int(rng.integers(1, 3)),
        layers_per_stack=int(rng.integers(1, 7)),
        channels=int(rng.choice([1, 4, 16])),
        seed=int(rng.integers(2**32)),
    )
    net = build_network(spec)
    a = generate(net, 64, engine="naive")
    b = generate(net, 64)
    assert np.isfinite(a).all()
    assert np.array_equal(a, b)  # same conv1d_point path in both engines


def test_priming_matches():
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=4, seed=8)
    net = build_network(spec)
    rng = np.random.default_rng(5)
    prime = rng.uniform(-1, 1, 11).astype(np.float32)
    a = generate(net, 40, engine="naive", prime=prime)
    b = generate(net, 40, prime=prime)
    assert a.shape == (40, 1)
    assert np.array_equal(a, b)
    # a batch is that many independent copies of the batch-1 run
    assert np.array_equal(generate(net, 40, batch=3, prime=prime), np.repeat(b, 3, axis=1))


def test_generation_deterministic_across_runs():
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=5, channels=4, seed=77)
    net = build_network(spec)
    prime = (0.25, -0.5)
    assert np.array_equal(generate(net, 30, prime=prime), generate(net, 30, prime=prime))
    rebuilt = build_network(spec)
    assert np.array_equal(generate(rebuilt, 30, prime=prime), generate(net, 30, prime=prime))


def test_n_steps_validation():
    net = zero_network()
    for kwargs in (
        dict(n_steps=0, engine="naive"),
        dict(n_steps=None),  # only an image has a natural length
        dict(n_steps=4, engine="fast"),
        dict(n_steps=4, batch=0),
        dict(n_steps=2.5),
        dict(n_steps="3"),
        dict(n_steps=True),
        dict(n_steps=4, batch=2.5),
        dict(n_steps=4, batch="2"),
    ):
        with pytest.raises(InvalidParameterError):
            generate(net, **kwargs)


# ---------------------------------------------------------------------------
# op-count law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stacks", [1, 2])
@pytest.mark.parametrize("L", range(1, 6))
def test_node_counts_match_tree_oracle(stacks, L):
    spec = NetworkSpec("dilated", stacks=stacks, layers_per_stack=L, channels=2, seed=31)
    net = build_network(spec)
    want_naive = dependency_tree_nodes(L, stacks)
    assert want_naive == stacks * (2**L - 1) + 1  # graph oracle agrees with the closed form
    assert measure_nodes_per_step(net, "naive") == want_naive
    assert measure_nodes_per_step(net, "cached") == stacks * L + 1


@pytest.mark.parametrize("stacks", [1, 2, 3])
@pytest.mark.parametrize("L", range(1, 7))
def test_naive_early_steps_compute_only_nodes_at_or_after_step_0(stacks, L):
    # level l of a stack's pyramid at step t holds the nodes at t, t - 2^l, ...:
    # min(2^(L-l), t // 2^l + 1) of them lie at or after step 0
    net = build_network(NetworkSpec("dilated", stacks=stacks, layers_per_stack=L, channels=2,
                                    seed=5))
    state = naive_init(net)
    for t in range(2**L + 4):
        before = state.counter.node_evals
        naive_step(net, state, 0.25)
        want = stacks * sum(min(2 ** (L - l), t // 2**l + 1) for l in range(1, L + 1)) + 1
        assert state.counter.node_evals - before == want, t


# (stacks, L, C, steps): the window's fill and 2^(L+1) + 5 steps past it, 40 at L=10
NAIVE_SHAPES = [(stacks, L, C, 3 * 2**L + 5) for stacks in (1, 2, 3)
                for L, C in ((1, 1), (2, 3), (4, 8), (5, 1), (8, 8))]
NAIVE_SHAPES += [(stacks, 10, 32, 2**10 + 40) for stacks in (1, 2, 3)]


@pytest.mark.parametrize("stacks, L, C, n", NAIVE_SHAPES)
def test_naive_step_equals_the_per_node_pyramid(stacks, L, C, n):
    # outputs and per-step counter deltas byte for byte, each output fed back;
    # a deep copy and a pickle taken mid-window continue the same
    net = build_network(NetworkSpec("dilated", stacks=stacks, layers_per_stack=L, channels=C,
                                    seed=10 * L + C))
    reference, inputs, want = per_node_naive_init(net, OpCounter()), [np.float32(0.5)], []
    for t in range(n):
        before = reference[1].snapshot()
        inputs.append(per_node_naive_step(net, reference, inputs[t]))
        want.append((inputs[-1].tobytes(), reference[1].macs - before[0],
                     reference[1].node_evals - before[1]))

    def run(state, start, stop):
        for t in range(start, stop):
            before = state.counter.snapshot()
            y = naive_step(net, state, inputs[t])
            got = (y.tobytes(), state.counter.macs - before[0], state.counter.node_evals - before[1])
            assert got == want[t], t

    fork_at = 2 ** (L - 1)  # half the window filled
    state = naive_init(net)
    run(state, 0, fork_at)
    for fork in (copy.deepcopy(state), pickle.loads(pickle.dumps(state)), state):
        run(fork, fork_at, n)


def test_naive_step_runs_each_level_as_one_stacked_call(monkeypatch):
    # stacks * L `_stacked_point` calls per step, and one `conv1d_point`, the head's
    net = build_network(NetworkSpec("dilated", stacks=3, layers_per_stack=4, channels=2, seed=3))
    calls = []
    for name in ("_stacked_point", "conv1d_point"):
        def counted(*args, _kernel=getattr(dilated, name), _name=name):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(dilated, name, counted)
    state = naive_init(net)
    for t in range(2**4 + 3):
        calls.clear()
        naive_step(net, state, 0.25)
        assert sorted(calls) == ["_stacked_point"] * 3 * 4 + ["conv1d_point"], t


def test_naive_state_has_a_constant_size():
    net = build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=3, seed=2))
    state, sizes = naive_init(net), {}
    for t in range(1, 8 * 2**4 + 1):
        naive_step(net, state, 0.5)
        if t in (2**4 + 3, 8 * 2**4):
            sizes[t] = len(pickle.dumps(state))
    assert len(set(sizes.values())) == 1, sizes


def test_macs_formula_exact():
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=3, channels=4, seed=3)
    net = build_network(spec)
    counter = OpCounter()
    n = 8
    generate(net, n, counter=counter)
    per_layer = [l.weights.out_channels * l.weights.in_channels * 2 for l in net.layers]
    want = n * (sum(per_layer) + net.head.in_channels)
    assert counter.macs == want


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def test_constant_memory_rollout():
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=3, seed=7)
    net = build_network(spec)
    state = incremental_init(net)
    analytic = sum(l.dilation * l.weights.in_channels for l in net.layers)
    x = np.float32(0.0)
    seen = set()
    for t in range(500):
        x = incremental_step(net, state, x)
        seen.add(state.cached_values())
    assert seen == {analytic}


def test_constant_memory_literal_formula_single_channel():
    # with channels=1 every cache stores exactly `dilation` scalars
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=1, seed=7)
    net = build_network(spec)
    state = incremental_init(net)
    x = np.float32(0.0)
    for _ in range(64):
        x = incremental_step(net, state, x)
    assert state.cached_values() == sum(spec.dilations()) * spec.channels


def ring_layout(net):
    """(first ring row, dilation) of each layer after the first, in order."""
    dils = [layer.dilation for layer in net.layers[1:]]
    return list(zip(np.cumsum([0] + dils[:-1]), dils))


def layer_inputs(net, xs):
    """Each layer's whole input sequence, (in_channels, T), as forward_full computes it."""
    acts = [np.asarray(xs, np.float32)[None, :]]
    for layer in net.layers[:-1]:
        acts.append(np.tanh(conv1d_full(layer.weights, acts[-1], dilation=layer.dilation)))
    return acts


# ring records of 12, 4 and 128 bytes; the 3-channel cases keep their ids of bare t
@pytest.mark.parametrize("t, channels", [
    pytest.param(t, c, id=str(t) if c == 3 else f"{t}-C{c}")
    for c in (3, 1, 32) for t in (1, 3, 8, 37, 100)
])
def test_ring_holds_each_layers_last_dilation_inputs(t, channels):
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=channels, seed=41)
    net = build_network(spec)
    xs = np.random.default_rng(t).uniform(-1, 1, t).astype(np.float32)
    state = incremental_init(net)
    for x in xs:
        incremental_step(net, state, x)
    acts = layer_inputs(net, xs)
    assert np.array_equal(state.ring0, xs[-1:])
    for l, (off, d) in enumerate(ring_layout(net), start=1):
        for s in range(t - d, t):  # row off + s % d holds the input of step s
            want = acts[l][:, s] if s >= 0 else np.zeros(spec.channels, np.float32)
            assert np.array_equal(state.ring[off + s % d], want), (l, s)


def test_cached_vectors_are_never_written():
    # each step writes one ring row per layer, row offset + t % dilation, and
    # ring0: a stored input stays as stored until it is read, dilation steps later
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=3, seed=13)
    net = build_network(spec)
    state = incremental_init(net)
    assert not state.ring.any() and not state.ring0.any()  # zero padding before step 0
    layout = ring_layout(net)
    x = np.float32(0.3)
    for t in range(24):
        before = state.ring.copy()
        x = incremental_step(net, state, x)
        changed = set(np.flatnonzero((state.ring != before).any(axis=1)))
        assert changed <= {off + t % d for off, d in layout}
    # the per-thread column workspace is not part of the state
    assert not any(np.shares_memory(state.ring, a) for a in vars(net._local.workspace).values()
                   if isinstance(a, np.ndarray))
    assert state.cached_values() == sum(l.dilation * l.weights.in_channels for l in net.layers)


def test_init_allocates_fresh_rings_of_the_size_the_network_fixed():
    # a network fixes its rings' size once, when it is constructed; every init
    # still allocates fresh zeroed rings of that size, and its own counter
    built = build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=3, seed=13))
    for net in (built, zero_network(L=3, channels=3), pickle.loads(pickle.dumps(built)),
                copy.deepcopy(built)):
        assert net.ring_shape == (sum(l.dilation for l in net.layers[1:]), net.spec.channels)
        assert net.ring0_size == net.layers[0].dilation == 1
        a, b = incremental_init(net), incremental_init(net)
        for s in (a, b):
            assert s.ring.shape == net.ring_shape and s.ring0.shape == (1,)
            assert s.ring.dtype == s.ring0.dtype == np.float32
            assert not s.ring.any() and not s.ring0.any()
        assert not np.shares_memory(a.ring, b.ring) and not np.shares_memory(a.ring0, b.ring0)
        assert a.counter is not b.counter


def test_non_scalar_input_is_a_shape_error():
    net = build_network(NetworkSpec("dilated", stacks=1, layers_per_stack=3, channels=2, seed=4))
    state = incremental_init(net)
    incremental_step(net, state, 0.5)
    ring = state.ring.copy()
    for x in (np.zeros(2, np.float32), [0.5], np.zeros((1, 1), np.float32), np.ones(1)):
        with pytest.raises(ShapeError):
            incremental_step(net, state, x)
    assert state.t == 1 and np.array_equal(state.ring, ring)  # nothing was consumed


# ---------------------------------------------------------------------------
# state fork, sharing a network
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fork_at", [3, 40])
def test_forked_state_continues_bit_exact(fork_at):
    # at t=3 the dilation-4 and -8 rows are still partly zero padding; at t=40 none are
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=4, seed=21)
    net = build_network(spec)
    whole = generate(net, 80, prime=(0.5,))[:, 0]
    state = incremental_init(net)
    x = np.float32(0.5)
    for _ in range(fork_at):
        x = incremental_step(net, state, x)
    fork = copy.deepcopy(state)
    assert fork.counter is not state.counter
    assert not np.shares_memory(fork.ring, state.ring)
    assert not np.shares_memory(fork.ring0, state.ring0)
    # rows not written yet: dilations 4 and 8 leave 1 + 5 per stack at t=3
    assert (~fork.ring.any(axis=1)).sum() == (12 if fork_at == 3 else 0)
    xs = {"state": x, "fork": x}
    outs = {"state": [], "fork": []}
    for _ in range(80 - fork_at):
        for name, st in (("state", state), ("fork", fork)):  # interleaved
            xs[name] = incremental_step(net, st, xs[name])
            outs[name].append(xs[name])
    for name in outs:
        assert np.array_equal(np.array(outs[name], np.float32), whole[fork_at:])
    assert fork.counter.snapshot() == state.counter.snapshot()


def test_forked_ring_is_independent():
    net = build_network(NetworkSpec("dilated", stacks=1, layers_per_stack=3, channels=2, seed=9))
    state = incremental_init(net)
    for _ in range(5):
        incremental_step(net, state, 0.25)
    fork = copy.deepcopy(state)
    ring, ring0 = state.ring.copy(), state.ring0.copy()
    for _ in range(7):
        incremental_step(net, fork, -0.75)
    assert state.t == 5 and np.array_equal(state.ring, ring) and np.array_equal(state.ring0, ring0)
    assert not np.array_equal(fork.ring, ring)


def _run(net, xs, state=None):
    state = incremental_init(net) if state is None else state
    return np.array([incremental_step(net, state, x) for x in xs], np.float32)


def test_states_of_one_network_interleaved_stay_bit_exact():
    net = build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=4, seed=6))
    rng = np.random.default_rng(6)
    xa, xb = rng.uniform(-1, 1, (2, 60)).astype(np.float32)
    a, b = incremental_init(net), incremental_init(net)
    ya, yb = [], []
    for va, vb in zip(xa, xb):
        ya.append(incremental_step(net, a, va))
        yb.append(incremental_step(net, b, vb))
    assert np.array_equal(np.array(ya, np.float32), forward_full(net, xa))
    assert np.array_equal(np.array(yb, np.float32), forward_full(net, xb))


def test_states_of_one_network_in_threads_stay_bit_exact():
    # each thread steps its own state; the column workspace is per thread
    net = build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=4, seed=7))
    inputs = np.random.default_rng(7).uniform(-1, 1, (4, 300)).astype(np.float32)
    results = [None] * len(inputs)

    def work(i):
        results[i] = _run(net, inputs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for xs, ys in zip(inputs, results):
        assert np.array_equal(ys, forward_full(net, xs))


def test_state_continues_on_an_equal_network_rebuilt_by_pickle():
    # a state holds no weights and no workspace: stepped partway on one network
    # and continued on a distinct but equal one, it stays bit-exact
    net = build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=3, seed=4))
    other = pickle.loads(pickle.dumps(net))
    assert other == net and other is not net
    xs = np.random.default_rng(9).uniform(-1, 1, 30).astype(np.float32)
    whole, split = incremental_init(net), incremental_init(net)
    want = _run(net, xs, whole)
    got = np.concatenate((_run(net, xs[:11], split), _run(other, xs[11:], split)))
    assert np.array_equal(got, want)
    assert split.counter.snapshot() == whole.counter.snapshot()
    assert other._local.workspace is not net._local.workspace


def test_network_pickle_and_deepcopy_round_trip():
    # every copy is rebuilt equal: read-only weights (image links too), each
    # weights' tap_mats viewing its own fused
    for spec in NETWORK_SPECS:
        net = build_network(spec)
        for other in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            assert other == net
            weights = list(_all_weights(other))
            assert len(weights) == len(list(_all_weights(net))) > 0
            for w in weights:
                assert not any(a.flags.writeable for a in (w.kernel, w.bias, w.fused, *w.tap_mats))
                assert all(np.shares_memory(m, w.fused) for m in w.tap_mats)
    net = build_network(NETWORK_SPECS[0])
    xs = np.random.default_rng(8).uniform(-1, 1, 40).astype(np.float32)
    want = _run(net, xs)  # builds this thread's workspace first
    for other in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert np.array_equal(_run(other, xs), want)
        assert other._local.workspace is not net._local.workspace
