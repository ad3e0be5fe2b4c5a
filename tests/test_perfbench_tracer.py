"""The benchmark's outside-in tracer, `perfbench/tracer.py` (imported, never
changed), against the cached engines at the benchmark's own geometries: the
32x32 image with 3 blocks, C=8 and the row pair, where rows advance in pairs
and a pair's second row runs block 0's burst in three column chunks, the
same image without the pair and a 16x16 one with 3-row vertical kernels;
the strided hourglass at C=32; dilated 2x10 at C=32; and 64 states of
dilated 2x8 at C=8.  The benchmark's own self-test runs an 8x8 image with 2
blocks.  The last test audits the names the tracer pins: the spans no
engine calls are exactly the name-only stubs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from convgen import ImageSpec, NetworkSpec, ScheduleViolationError, build_image_network
from convgen import dilated, image2d, strided
from convgen.image2d import _schedule, image_incremental_init

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


IMAGES = {
    "32x32-pair": ImageSpec(32, 32, channels=8, n_layers=3, row_pair=True, seed=0),
    "32x32": ImageSpec(32, 32, channels=8, n_layers=3, seed=0),
    "16x16-pair-kh3": ImageSpec(16, 16, channels=8, n_layers=3, kh=3, row_pair=True, seed=0),
}


@pytest.mark.parametrize("name", list(IMAGES))
def test_traced_columns_equal_counted_nodes_at_every_row_end(name):
    # every node goes through a counted kernel call: with the pair, block
    # 0's rows run in bursts of three column chunks on a pair's second row,
    # each also recomputing the odd row above it; without it, block 0's row
    # 2j+1 runs in n-column chunks on row 2j.  Neither path calls the
    # whole-row `_vconv_row` or the pair's `feed`, which the tracer patches
    tracer = _load_tracer()
    spec = IMAGES[name]
    net = build_image_network(spec)
    lead, lag = _schedule(spec.width, spec.n_layers, spec.row_pair)[1][:2]
    chunks = [op for ops in (lag if spec.row_pair else lead) if ops for op in ops
              if isinstance(op, tuple) and op[0] == 0 and op[1] == 1 + spec.row_pair]
    assert len(chunks) == (3 if spec.row_pair else -(-spec.width // spec.n_layers))
    state = image_incremental_init(net, batch=2)
    before = tracer.patched_names()
    traced = tracer.Tracer()
    traced.install()
    try:
        for r in range(spec.height):
            for _ in range(spec.width):  # the benchmark adapter's step
                if state.c == 0:
                    image2d.vertical_row_pass(net, state, state.r)
                image2d._pixel_step(net, state)
            assert traced.kernel_cols() == state.counter.node_evals, r
    finally:
        traced.uninstall()
    assert all(a[2] is b[2] for a, b in zip(before, tracer.patched_names()))
    spans = traced.spans
    assert spans["tensor.conv1d_point"].cols == traced.kernel_cols() > 0
    assert spans["image2d._vconv_row"].calls == 0
    assert spans["image2d._PairState.feed"].calls == 0


# (spec, batch, init, step), as the benchmark's 1D adapters build and step them
ONE_D = {
    "strided-hourglass-C32": (
        NetworkSpec("strided", channels=32, strides=("down2", "down2", "up2", "up2"), seed=5),
        1, strided.build_strided_network, "strided_incremental_init",
        "strided_incremental_step"),
    "dilated-2x10-C32": (
        NetworkSpec("dilated", stacks=2, layers_per_stack=10, channels=32, seed=5),
        1, dilated.build_network, "incremental_init", "incremental_step"),
    "dilated-2x8-C8-b64": (
        NetworkSpec("dilated", stacks=2, layers_per_stack=8, channels=8, seed=5),
        64, dilated.build_network, "incremental_init", "incremental_step"),
}


@pytest.mark.parametrize("name", list(ONE_D))
def test_traced_columns_equal_counted_nodes_for_1d_engines(name):
    # every node of a cached 1D step goes through one counted kernel call, so
    # the tracer's columns equal OpCounter's nodes after every step; the
    # strided step runs each up phase through `conv1d_point`
    tracer = _load_tracer()
    spec, batch, build, init, step = ONE_D[name]
    net = build(spec)
    module = strided if spec.family == "strided" else dilated
    states = [getattr(module, init)(net) for _ in range(batch)]
    xs = np.random.default_rng(3).uniform(-1, 1, batch).astype(np.float32)
    before = tracer.patched_names()
    traced = tracer.Tracer()
    traced.install()
    try:
        for t in range(24):  # through the module, as the tracer patches it
            xs = [getattr(module, step)(net, e, x) for e, x in zip(states, xs)]
            assert traced.kernel_cols() == sum(e.counter.node_evals for e in states), t
    finally:
        traced.uninstall()
    assert all(a[2] is b[2] for a, b in zip(before, tracer.patched_names()))
    spans = traced.spans
    assert spans["tensor.conv1d_point"].cols == traced.kernel_cols() > 0
    assert spans["tensor.transposed_point"].calls == 0


# what the tracer patches but no engine calls: names only, whose bodies raise
STUBS = {"cache.FifoCache.pop", "cache.FifoCache.push", "cache.FifoCache.fires",
         "tensor.transposed_point", "cache.RowCache.push_row", "cache.RowCache.rows_stack",
         "image2d._vconv_row", "image2d._PairState.feed"}


def test_the_spans_never_called_are_the_name_only_stubs():
    # each family's cached engine at a small shape under the tracer: every
    # pinned name but the stubs is called, and each stub raises when called,
    # so no pinned body is left without a caller and no live one is stubbed
    tracer = _load_tracer()
    dnet = dilated.build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=2))
    snet = strided.build_strided_network(
        NetworkSpec("strided", channels=2, strides=("down2", "down2", "up2", "up2")))
    inet = build_image_network(ImageSpec(4, 5, channels=2, n_layers=2, row_pair=True, seed=1))
    dstate, sstate = dilated.incremental_init(dnet), strided.strided_incremental_init(snet)
    istate = image_incremental_init(inet, batch=2)
    traced = tracer.Tracer()
    traced.install()
    try:
        x = y = np.float32(0.5)
        for _ in range(8):
            x = dilated.incremental_step(dnet, dstate, x)
            y = strided.strided_incremental_step(snet, sstate, y)
        for _ in range(4 * 5):  # the benchmark adapter's step, over the whole image
            if istate.c == 0:
                image2d.vertical_row_pass(inet, istate, istate.r)
            image2d._pixel_step(inet, istate)
    finally:
        traced.uninstall()
    assert {name for name, span in traced.spans.items() if span.calls == 0} == STUBS
    for name, owners, attr, _ in tracer.PATCHES:
        if name in STUBS:
            for owner in owners:
                with pytest.raises(ScheduleViolationError):
                    vars(owner)[attr](None)  # a method stub takes None for its self
