#!/usr/bin/env python3
"""Walkthrough: row-cached 2D generation with vertical/horizontal streams.

Generates a small image pixel by pixel in raster order.  The naive engine
runs a full image pass for every pixel (H*W passes); the cached engine
keeps the last kh rows per layer, computes each vertical-stream row once,
and advances the horizontal stream from tiny strictly-left windows.  Both
produce the same image, dumped as PGM for eyeballing (numeric checks always
use the raw float values).
"""

import numpy as np

from convgen import (
    ImageSpec,
    OpCounter,
    build_image_network,
    generate,
    write_pgm,
)

spec = ImageSpec(16, 16, channels=8, n_layers=3, seed=11)
net = build_image_network(spec)

naive_counter, cached_counter = OpCounter(), OpCounter()
# one row per raster pixel, one column per batch element
a = generate(net, engine="naive", counter=naive_counter)
b = generate(net, engine="cached", counter=cached_counter)
pixels = spec.height * spec.width

print(f"{spec.height}x{spec.width} image, {spec.n_layers} blocks, {spec.channels} channels")
print(f"max |naive - cached| = {np.max(np.abs(a - b))}")
print(f"naive : {naive_counter.node_evals / pixels:9.1f} node evals per pixel "
      f"({pixels} full passes)")
print(f"cached: {cached_counter.node_evals / pixels:9.1f} node evals per pixel")
print()

write_pgm("naive.pgm", a.reshape(spec.height, spec.width))
write_pgm("cached.pgm", b.reshape(spec.height, spec.width))
print("wrote naive.pgm and cached.pgm")

# A batch generates in lockstep: one matrix product per point op instead of
# one per element, so batching is nearly free for the cached engine.
batched = generate(net, batch=16)
print("batch of 16: every element identical to element 0:",
      all(np.array_equal(batched[:, i], batched[:, 0]) for i in range(16)))

# The strided row pair (stride-2 down/up over rows) reuses the 1D schedule.
pair_spec = ImageSpec(16, 16, channels=8, n_layers=3, row_pair=True, seed=11)
pair_net = build_image_network(pair_spec)
pa = generate(pair_net, engine="naive")
pb = generate(pair_net, engine="cached")
print(f"with row down/up pair: max |naive - cached| = {np.max(np.abs(pa - pb))}")
