#!/usr/bin/env python3
"""Walkthrough: hidden-state caching for a dilated 1D stack.

Builds a small doubling-dilation network, generates the same sequence with
the naive engine (recompute the whole dependency tree per sample) and the
cached engine (one new node per layer per sample), and shows that the
outputs are identical while the op counters tell very different stories.
"""

import numpy as np

from convgen import (
    NetworkSpec,
    OpCounter,
    build_network,
    generate,
    receptive_field,
)
from convgen.bench import measure_nodes_per_step
from convgen.dilated import incremental_init, incremental_step

spec = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=8, seed=42)
net = build_network(spec)

print("network:", spec.to_json())
print("per-layer dilations:", spec.dilations())
print("receptive field:", receptive_field(spec), "input positions per sample")
print()

# Same samples from both engines, bit for bit.
n_steps = 64
naive_counter, cached_counter = OpCounter(), OpCounter()
prime = (0.1, -0.2, 0.3)
a = generate(net, n_steps, engine="naive", prime=prime, counter=naive_counter)[:, 0]
b = generate(net, n_steps, engine="cached", prime=prime, counter=cached_counter)[:, 0]
print(f"generated {n_steps} samples; max |naive - cached| = {np.max(np.abs(a - b))}")
print("first five samples:", np.round(a[:5], 5))
print()

# The complexity gap: exponential vs linear nodes per sample.
print(f"{'L':>3} {'naive nodes/step':>17} {'cached nodes/step':>18}")
for L in range(1, 9):
    s = NetworkSpec("dilated", stacks=2, layers_per_stack=L, channels=2, seed=1)
    n = build_network(s)
    print(f"{L:>3} {measure_nodes_per_step(n, 'naive'):>17} {measure_nodes_per_step(n, 'cached'):>18}")
print()

# Cache storage is constant no matter how long the rollout runs.
state = incremental_init(net)
x = np.float32(0.0)
for t in (10, 100, 1000):
    while state.t < t:
        x = incremental_step(net, state, x)
    print(f"t={t}: {state.cached_values()} cached values "
          f"({sum(l.dilation * l.weights.in_channels for l in net.layers)} analytic)")
