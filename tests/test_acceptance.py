"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
(or `convgen-bench verify` for the CLI flavour of the property checks).
Every tolerance and time budget is asserted here, not just reported.
"""

import time

import numpy as np
import pytest

from convgen import (
    ImageSpec,
    NetworkSpec,
    StridedPlan,
    build_image_network,
    build_network,
    firing_trace,
    forward_full,
    receptive_field,
)
from convgen.bench import (
    check_causality,
    check_equivalence,
    expected_hourglass_trace,
    init,
    measure_nodes_per_step,
    step,
    time_engine,
)
from convgen.dilated import incremental_init, incremental_step
from oracles import dependency_tree_nodes

TOL = 1e-5
HOURGLASS = ("down2", "down2", "up2", "up2")


def report(n, name, detail):
    print(f"\nACCEPTANCE {n} {name}: PASS ({detail})")


def test_acceptance_1_dilated_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    nets = [
        build_network(NetworkSpec(
            "dilated",
            stacks=int(rng.integers(1, 3)),
            layers_per_stack=int(rng.integers(1, 7)),
            channels=int(rng.choice([1, 4, 16])),
            seed=int(rng.integers(2**32)),
        ))
        for _ in range(100)
    ]
    ok, detail = check_equivalence(nets, 256, TOL)
    assert ok, detail
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    report(1, "equivalence-dilated", f"{detail} <= {TOL}, {elapsed:.1f}s < 60s")


def test_acceptance_2_complexity_law_exact():
    checked = 0
    for stacks in (1, 2):
        for L in range(1, 9):
            spec = NetworkSpec("dilated", stacks=stacks, layers_per_stack=L, channels=2, seed=3)
            net = build_network(spec)
            naive_nodes = measure_nodes_per_step(net, "naive")
            cached_nodes = measure_nodes_per_step(net, "cached")
            assert naive_nodes == stacks * (2**L - 1) + 1 == dependency_tree_nodes(L, stacks)
            assert cached_nodes == stacks * L + 1
            checked += 1
    report(2, "complexity-law",
           f"node_evals/step exact for L=1..8, stacks in {{1,2}} ({checked} configs, "
           "naive=stacks*(2^L-1)+1, cached=stacks*L+1)")


def test_acceptance_3_golden_trace():
    t0 = time.perf_counter()
    plan = StridedPlan.from_spec(NetworkSpec("strided", strides=HOURGLASS))
    trace = firing_trace(plan, 6)
    for rec, (t, nodes, emit) in zip(trace, expected_hourglass_trace()):
        assert rec.t == t and rec.nodes == nodes and rec.emit == emit
        assert rec.outputs_emitted == 1
    assert sum(trace[0].nodes[-1:]) == 4  # burst buffers the first four outputs
    assert trace[4].nodes == trace[0].nodes and trace[5].nodes == trace[1].nodes
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, "golden-trace",
           f"burst(4 outs)@t=0, 0 nodes@t=1/t=3, 1 node@t=2, t=4/5 == t=0/1 shifted, {elapsed * 1e3:.0f}ms < 1s")


def test_acceptance_4_strided_equivalence():
    t0 = time.perf_counter()
    nets = [
        build_network(NetworkSpec("strided", channels=3, strides=HOURGLASS, seed=seed))
        for seed in range(50)
    ]
    ok, detail = check_equivalence(nets, 200, TOL)
    assert ok, detail
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    report(4, "equivalence-strided", f"{detail} <= {TOL}, {elapsed:.1f}s < 30s")


def test_acceptance_5_image_equivalence():
    t0 = time.perf_counter()
    layer_cycle = (3, 4, 5)
    nets = [
        build_image_network(ImageSpec(size, size, channels=4,
                                      n_layers=layer_cycle[seed % 3], seed=seed))
        for size in (8, 16)
        for seed in range(20)
    ]
    ok, detail = check_equivalence(nets, None, TOL)
    assert ok, detail
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"
    report(5, "equivalence-image2d",
           f"8x8 and 16x16, layers 3-5, 20 seeds each, {detail} <= {TOL}, {elapsed:.1f}s < 5min")


def alternating_min_us(net, steps: int, repeats: int) -> dict:
    """`time_engine`'s `min_us` for the naive and the cached engine, their
    timed blocks alternating, so that both see the same machine speed."""
    states = {engine: init(net, engine) for engine in ("naive", "cached")}
    for _ in range(receptive_field(net.spec)):  # the naive engine's steady state
        for state in states.values():
            step(net, state)
    best = dict.fromkeys(states, float("inf"))
    for _ in range(repeats):
        for engine, state in states.items():
            t0 = time.perf_counter()
            for _ in range(steps):
                step(net, state)
            best[engine] = min(best[engine], (time.perf_counter() - t0) * 1e6 / steps)
    return best


def test_acceptance_6_directional_speedup():
    speedups = {}
    for L in (4, 6, 8, 10):
        spec = NetworkSpec("dilated", stacks=2, layers_per_stack=L, channels=4, seed=1)
        net = build_network(spec)
        # minima over repeats: a stall on a shared machine only ever adds time
        best = alternating_min_us(net, steps=24, repeats=150)
        speedups[L] = best["naive"] / best["cached"]
    pairs = sorted(speedups.items())
    assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:])), f"not increasing: {speedups}"
    assert speedups[10] > 5.0, f"L=10 speedup {speedups[10]:.1f}x <= 5x"

    ispec = ImageSpec(16, 16, channels=8, n_layers=3, seed=2)
    inet = build_image_network(ispec)
    img_speedup = {}
    for batch in (1, 16):
        naive = time_engine(inet, "naive", steps=None, repeats=2, batch=batch)
        cached = time_engine(inet, "cached", steps=None, repeats=2, batch=batch)
        img_speedup[batch] = naive["median_us"] / cached["median_us"]
    assert img_speedup[16] > img_speedup[1], f"batch scaling failed: {img_speedup}"
    report(6, "directional-speedup",
           "dilated speedups " + ", ".join(f"L={L}: {s:.1f}x" for L, s in pairs)
           + f"; image2d batch1 {img_speedup[1]:.1f}x < batch16 {img_speedup[16]:.1f}x")


def test_acceptance_7_constant_memory():
    details = []
    for channels in (1, 3):
        spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=channels, seed=9)
        net = build_network(spec)
        state = incremental_init(net)
        analytic = sum(l.dilation * l.weights.in_channels for l in net.layers)
        if channels == 1:
            assert analytic == sum(spec.dilations()) * channels  # literal formula
        x = np.float32(0.0)
        sizes = set()
        for t in range(1000):
            x = incremental_step(net, state, x)
            if t in (9, 499, 999):
                sizes.add(state.cached_values())
        assert sizes == {analytic}, f"channels={channels}: {sizes} != {analytic}"
        details.append(f"channels={channels}: {analytic} values at t=10/500/1000")
    report(7, "constant-memory", "; ".join(details))


def test_acceptance_8_causality():
    ok, detail = check_causality()
    assert ok, detail
    # extra geometry: taller dilated stack
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=5, channels=1, seed=4)
    net = build_network(spec)
    rf = receptive_field(spec)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, rf + 8).astype(np.float32)
    base = forward_full(net, x)
    for t2 in range(1, len(x), 5):
        xp = x.copy()
        xp[t2] += 1.0
        assert np.array_equal(forward_full(net, xp)[:t2], base[:t2])
    report(8, "causality", detail)
