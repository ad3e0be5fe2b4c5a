"""Dilated-family tests: builders, receptive fields, engine equivalence
(bit-exact), op-count laws against the dependency-graph oracle, priming,
and constant-memory generation."""

import numpy as np
import pytest

from convgen import (
    ConvWeights,
    InvalidParameterError,
    NetworkSpec,
    OpCounter,
    build_network,
    forward_full,
    incremental_generate,
    naive_generate,
    receptive_field,
)
from convgen.bench import measure_nodes_per_step
from convgen.dilated import (
    DilatedNetwork,
    LayerDef,
    incremental_init,
    incremental_step,
    naive_init,
    naive_step,
)
from oracles import dependency_tree_nodes, perturbation_influence


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
                "tanh",
            )
        )
    head = ConvWeights(np.zeros((1, channels, 1), np.float32), np.zeros(1, np.float32))
    return DilatedNetwork(spec, tuple(layers), head)


def test_zero_network_outputs_zero():
    net = zero_network()
    out = naive_generate(net, prime=(1.0, -2.0, 3.0), n_steps=10)
    assert not out.any()
    assert not incremental_generate(net, prime=(1.0, -2.0, 3.0), n_steps=10).any()


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
    a = naive_generate(net, (), 64)
    b = incremental_generate(net, (), 64)
    assert np.isfinite(a).all()
    assert np.array_equal(a, b)  # same conv1d_point path in both engines


def test_priming_matches():
    spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=4, seed=8)
    net = build_network(spec)
    rng = np.random.default_rng(5)
    prime = rng.uniform(-1, 1, 11).astype(np.float32)
    a = naive_generate(net, prime, 40)
    b = incremental_generate(net, prime, 40)
    assert np.array_equal(a, b)


def test_generation_deterministic_across_runs():
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=5, channels=4, seed=77)
    net = build_network(spec)
    prime = (0.25, -0.5)
    assert np.array_equal(
        incremental_generate(net, prime, 30), incremental_generate(net, prime, 30)
    )
    assert np.array_equal(
        incremental_generate(build_network(spec), prime, 30),
        incremental_generate(net, prime, 30),
    )


def test_n_steps_validation():
    net = zero_network()
    with pytest.raises(InvalidParameterError):
        naive_generate(net, (), 0)


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


def test_macs_formula_exact():
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=3, channels=4, seed=3)
    net = build_network(spec)
    counter = OpCounter()
    n = 8
    incremental_generate(net, (), n, counter)
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
