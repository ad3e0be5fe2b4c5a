"""How the builders draw weights: one `random` call for every double of a
network, scaled per run of equal shapes as `Generator.uniform` scales them,
one gather through a memoised index into every `fused`, and each weight
built without the checked constructor.  Every draw must equal, byte for
byte, one `uniform` call per weight (tests/oracles.py); every built weight
must equal, field by field, what `ConvWeights(kernel, bias)` makes of it;
each builder must take exactly its closed-form number of floats from its
generator; and the memo must keep to its bound."""

import math
import pickle
import random

import numpy as np
import pytest

from convgen import ConvWeights, ImageSpec, NetworkSpec, build_network, dilated
from convgen.dilated import draw_uniform
from convgen.tensor import CEILINGS
from oracles import draw_each_uniform
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
    # every fused is gathered by one take for the whole network, then copied out per weight
    net = build_network(SPECS["dilated-2x8-c8"])
    fused = [layer.weights.fused for layer in net.layers] + [net.head.fused]
    assert all(f.base is None for f in fused)


def _closed_form(spec) -> int:
    """The floats a spec's weights draw: out*(in*taps + 1) per weight, but no
    bias for an image block's link."""
    if isinstance(spec, ImageSpec):
        return spec.sizes()["weight_floats"] - spec.n_layers * spec.channels  # the links' zero biases
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


def _random_shapes(r: random.Random) -> list:
    """Runs of 1-4 equal shapes: channels 1-9, 1D or 2D taps, bias drawn or not."""
    shapes = []
    for _ in range(r.randint(1, 6)):
        taps = tuple(r.randint(1, 3) for _ in range(r.choice((1, 2))))
        shapes += [(r.randint(1, 9), r.randint(1, 9), taps, r.random() < 0.5)] * r.randint(1, 4)
    return shapes


def _same_draws(got, want) -> bool:
    def arr(a):
        return a.shape, a.dtype, a.tobytes()
    return [(arr(w.kernel), arr(w.fused)) for w in got] == [(arr(k), arr(f)) for k, f in want]


@pytest.mark.parametrize("case", range(40))
def test_draws_equal_one_uniform_call_per_weight(monkeypatch, case):
    # random then scale must give uniform's doubles bit for bit on this numpy
    # build (the float32 cast would hide most one-ulp slips, so the doubles
    # are compared first), and the weights byte for byte, with the index
    # built (first draw) and memoised (second)
    monkeypatch.setattr(dilated, "_DRAWS", {})
    r = random.Random(case)
    shapes, seed = _random_shapes(r), r.randrange(2**32)
    for a in {0.5 / math.sqrt(in_ch * math.prod(taps)) for _, in_ch, taps, _ in shapes}:
        doubles = np.random.default_rng(seed).random(4096)
        doubles *= 2 * a
        doubles -= a
        assert doubles.tobytes() == np.random.default_rng(seed).uniform(-a, a, 4096).tobytes(), (
            f"numpy {np.__version__}: random then scale is not uniform at a = {a!r}")
    for draw in ("first", "memoised"):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = draw_uniform(rng, shapes), draw_each_uniform(ref, shapes)
        where = f"numpy {np.__version__}, {draw} draw of {shapes} at seed {seed}"
        assert _same_draws(got, want), where
        assert rng.bit_generator.state == ref.bit_generator.state, where
        assert tuple(shapes) in dilated._DRAWS


def test_the_draw_memo_keeps_to_its_bound(monkeypatch):
    # room for two or three of these indices: after twelve distinct shape
    # lists the memo holds at most its bound, the latest list among them; a
    # list whose index alone is over the bound is drawn, but it is not kept
    # and drops nothing
    monkeypatch.setattr(dilated, "_DRAWS", {})
    monkeypatch.setitem(CEILINGS, "draw_memo", (1000, CEILINGS["draw_memo"][1]))
    lists = [[(c, 2, (3,), True)] * 2 for c in range(20, 32)]  # 2*c*7 = 280 .. 434 entries
    large = [(50, 4, (5,), True)]  # 50*21 = 1050 entries
    for shapes in lists + [large]:
        kept = list(dilated._DRAWS)
        assert _same_draws(draw_uniform(np.random.default_rng(1), shapes),
                           draw_each_uniform(np.random.default_rng(1), shapes))
        assert sum(plan[2].size for plan in dilated._DRAWS.values()) <= 1000
        assert list(dilated._DRAWS) == kept if shapes is large else tuple(shapes) in dilated._DRAWS
    assert 1 < len(dilated._DRAWS) < len(lists)
