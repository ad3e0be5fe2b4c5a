"""The benchmark's outside-in tracer, `perfbench/tracer.py` (imported, never
changed), against the cached image engine at the benchmark's own image
geometry: 32x32, 3 blocks, C=8, with the row pair, where rows advance in
pairs and a pair's second row runs block 0's burst in three column chunks.
The benchmark's own self-test runs an 8x8 image with 2 blocks."""

import importlib.util
from pathlib import Path

from convgen import ImageSpec, build_image_network
from convgen import image2d
from convgen.image2d import _schedule, image_incremental_init

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_columns_equal_counted_nodes_at_every_row_end():
    tracer = _load_tracer()
    spec = ImageSpec(32, 32, channels=8, n_layers=3, row_pair=True, seed=0)
    net = build_image_network(spec)
    lag = _schedule(32, 3, True)[1][1]
    burst_ops = [op for ops in lag if ops for op in ops
                 if isinstance(op, tuple) and op[:2] == (0, 2)]
    assert len(burst_ops) == 3  # block 0's burst in three chunks on a pair's second row
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
    # every node went through a counted call: kernels, and whole vertical
    # rows only in the pair's feed (an odd row's carry, whose own span counts
    # no columns); every other vertical row runs through `conv1d_point`
    spans = traced.spans
    assert spans["image2d._vconv_row"].calls == spec.height // 2
    assert spans["image2d._PairState.feed"].calls == spec.height // 2
    assert spans["image2d._PairState.feed"].cols == 0
