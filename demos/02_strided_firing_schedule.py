#!/usr/bin/env python3
"""Walkthrough: the firing schedule for strided stacks.

A stride-2 encoder/decoder cannot update every cache at every step: the
bottleneck layer only has a new node every four inputs, and the transposed
layers emit several outputs at once.  The plan's per-phase node table
captures this, the firing trace shows the burst/idle cycle, and the
incremental engine still emits exactly one sample per step from its
pending-output queue.
"""

import numpy as np

from convgen import (
    NetworkSpec,
    StridedPlan,
    build_network,
    firing_trace,
    format_trace,
    generate,
)

spec = NetworkSpec("strided", channels=4, strides=("down2", "down2", "up2", "up2"), seed=7)
plan = StridedPlan.from_spec(spec)

print("plan:", " -> ".join(f"{k}{s}" for k, s in plan.layers))
print("period:", plan.period)
print("nodes computed per layer at each phase of the period:")
for phase, nodes in enumerate(plan.nodes):
    print(f"  t % {plan.period} == {phase}: {nodes}")
print()

print("firing trace, steps 0..7 (layer numbering is input -> output):")
print(format_trace(firing_trace(plan, 8)))
print()

net = build_network(spec)
a = generate(net, 64, engine="naive")[:, 0]
b = generate(net, 64, engine="cached")[:, 0]
print(f"64 samples, max |naive - cached| = {np.max(np.abs(a - b))}")
print("samples 0..7:", np.round(a[:8], 5))
