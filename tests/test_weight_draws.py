"""How the builders draw weights: one `uniform` call per run of equal shapes,
and each weight built without the checked constructor.  Every built weight
must equal, field by field, what `ConvWeights(kernel, bias)` makes of it, and
each builder must take exactly its closed-form number of floats from its
generator."""

import pickle

import numpy as np
import pytest

from convgen import ConvWeights, ImageSpec, NetworkSpec, build_network
from convgen.image2d import _sizes
from test_weight_pins import SPECS, _weights


def _fields(w):
    """Every field of a weight, its arrays as (shape, dtype, bytes)."""
    def arr(a):
        return a.shape, a.dtype, a.tobytes()
    return (arr(w.kernel), arr(w.bias), arr(w.fused), [arr(m) for m in w.tap_mats], w.fit,
            w.k, w.macs, w.out_channels, w.in_channels)


def _arrays(w):
    return [w.kernel, w.bias, w.fused, *w.tap_mats]


@pytest.mark.parametrize("name", SPECS)
def test_built_weights_equal_the_checked_constructor(name):
    net = build_network(SPECS[name])
    for copy in (net, pickle.loads(pickle.dumps(net))):
        for w in _weights(copy):
            assert _fields(w) == _fields(ConvWeights(w.kernel, w.bias))
            assert not any(a.flags.writeable for a in _arrays(w))
            assert w.fused.flags.c_contiguous


def test_each_weight_has_its_own_fused():
    # a run of equal shapes is transposed as one block, then copied out per weight
    net = build_network(SPECS["dilated-2x8-c8"])
    fused = [layer.weights.fused for layer in net.layers] + [net.head.fused]
    assert all(f.base is None for f in fused)


def _closed_form(spec) -> int:
    """The floats a spec's weights draw: out*(in*taps + 1) per weight, but no
    bias for an image block's link."""
    if isinstance(spec, ImageSpec):
        return _sizes(spec)[0] - spec.n_layers * spec.channels  # the links' zero biases
    C = spec.channels
    if spec.family == "dilated":
        return C * 3 + (spec.stacks * spec.layers_per_stack - 1) * C * (2 * C + 1) + C + 1
    n = len(spec.strides)
    return sum((1 if i == n - 1 else C) * ((1 if i == 0 else C)
               * (spec.kernel_size if tok.startswith("down") else int(tok[2:])) + 1)
               for i, tok in enumerate(spec.strides))


def _consumed(monkeypatch, spec) -> int:
    """How many doubles `build_network(spec)` took from its generator: the
    count n for which a fresh generator advanced by `random(n)` has the same
    bit generator state."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    build_network(spec)
    monkeypatch.undo()
    (rng,) = made
    n = _closed_form(spec)
    fresh = np.random.default_rng(spec.seed)
    fresh.random(n)
    assert rng.bit_generator.state == fresh.bit_generator.state
    return n


@pytest.mark.parametrize("name", SPECS)
def test_builders_take_their_closed_form_floats(monkeypatch, name):
    _consumed(monkeypatch, SPECS[name])


@pytest.mark.parametrize("spec, floats", [
    (NetworkSpec("dilated", 2, 8, channels=8, seed=5), 2073),  # perfbench's dilated-b64
    (NetworkSpec("strided", channels=4, strides=("down2", "down2", "up2", "up2"), seed=5), 93),
    (ImageSpec(8, 8, channels=4, n_layers=2, row_pair=True, seed=5), 293 - 2 * 4),
])
def test_closed_form_floats_at_known_shapes(monkeypatch, spec, floats):
    assert _consumed(monkeypatch, spec) == floats
