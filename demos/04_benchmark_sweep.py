#!/usr/bin/env python3
"""Walkthrough: a desk-scale benchmark sweep through the library API.

Times naive vs cached generation over depth (1D) and batch size (2D) and
prints speedup tables.  Wall times are hardware noise; the exact
macs_per_step column is the machine-checkable signal.  The same sweeps are
available from the command line:

    convgen-bench run --model dilated --stacks 2 --layers 1..10 --mode both
    convgen-bench run --model image2d --batch 1,4,16 --mode both
"""

from convgen import ImageSpec, NetworkSpec, build_image_network, build_network
from convgen.bench import time_engine

print("dilated depth sweep (stacks=2, channels=4)")
print(f"{'L':>3} {'naive us/step':>14} {'cached us/step':>15} {'speedup':>8} "
      f"{'naive macs':>11} {'cached macs':>12}")
for L in (2, 4, 6, 8):
    net = build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=L, channels=4, seed=0))
    naive = time_engine(net, "naive", steps=16, repeats=3)
    cached = time_engine(net, "cached", steps=16, repeats=3)
    print(f"{L:>3} {naive['median_us']:>14.1f} {cached['median_us']:>15.1f} "
          f"{naive['median_us'] / cached['median_us']:>7.1f}x "
          f"{naive['macs_per_step']:>11} {cached['macs_per_step']:>12}")

print()
print("image2d batch sweep (16x16, 3 blocks, 8 channels)")
print(f"{'batch':>5} {'naive us/px':>12} {'cached us/px':>13} {'speedup':>8}")
net = build_image_network(ImageSpec(16, 16, channels=8, n_layers=3, seed=0))
for batch in (1, 4, 16):
    naive = time_engine(net, "naive", steps=None, repeats=2, batch=batch)
    cached = time_engine(net, "cached", steps=None, repeats=2, batch=batch)
    print(f"{batch:>5} {naive['median_us']:>12.1f} {cached['median_us']:>13.1f} "
          f"{naive['median_us'] / cached['median_us']:>7.1f}x")

print()
print("the naive engine is work-bound, so batching scales its cost; the cached")
print("engine is overhead-bound, so batch elements ride along almost for free.")
