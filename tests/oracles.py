"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain scalar loops in float64
(or pure index arithmetic), with no code shared with the library, so the
fast kernels and engines can be checked against an implementation whose
correctness is obvious.
"""

import math

import numpy as np


def scalar_conv1d_point(kernel, bias, taps):
    """Triple-loop dot product: out[o] = bias[o] + sum_j sum_i kernel[o,i,j]*taps[j][i]."""
    out_ch = len(kernel)
    in_ch = len(kernel[0])
    k = len(kernel[0][0])
    out = []
    for o in range(out_ch):
        acc = float(bias[o])
        for j in range(k):
            for i in range(in_ch):
                acc += float(kernel[o][i][j]) * float(taps[j][i])
        out.append(acc)
    return np.array(out)


def scalar_conv1d_full(kernel, bias, x, dilation):
    """Whole-sequence dilated causal conv, zero padding on the left."""
    in_ch = len(x)
    T = len(x[0])
    k = len(kernel[0][0])
    cols = []
    for t in range(T):
        taps = []
        for j in range(k):
            idx = t - (k - 1 - j) * dilation
            taps.append([float(x[i][idx]) if idx >= 0 else 0.0 for i in range(in_ch)])
        cols.append(scalar_conv1d_point(kernel, bias, taps))
    return np.stack(cols, axis=1)


def scalar_strided_conv1d(kernel, bias, x, stride):
    """Downsampling conv: output j reads inputs stride*j-(k-1) .. stride*j."""
    in_ch = len(x)
    T = len(x[0])
    k = len(kernel[0][0])
    cols = []
    for j in range((T - 1) // stride + 1):
        hi = stride * j
        taps = []
        for t in range(k):
            idx = hi - (k - 1 - t)
            taps.append([float(x[i][idx]) if idx >= 0 else 0.0 for i in range(in_ch)])
        cols.append(scalar_conv1d_point(kernel, bias, taps))
    return np.stack(cols, axis=1)


def scalar_transposed_conv1d(kernel, bias, x, stride):
    """Upsampling conv with k == stride: out[stride*j+r] = bias + K[...,r] @ x[:,j]."""
    in_ch = len(x)
    T = len(x[0])
    out_ch = len(kernel)
    cols = []
    for j in range(T):
        for r in range(stride):
            acc = [float(bias[o]) for o in range(out_ch)]
            for o in range(out_ch):
                for i in range(in_ch):
                    acc[o] += float(kernel[o][i][r]) * float(x[i][j])
            cols.append(np.array(acc))
    return np.stack(cols, axis=1)


def scalar_masked_conv2d(kernel, bias, img, mask_kind):
    """Pixel-loop masked 2D conv over (in, H, W); zeros outside the image.

    vertical: rows r-kh..r-1, columns ending at c.
    horizontal: current row, columns c-kw..c-1.
    """
    out_ch = len(kernel)
    in_ch = len(kernel[0])
    kh = len(kernel[0][0])
    kw = len(kernel[0][0][0])
    H = len(img[0])
    W = len(img[0][0])
    out = np.zeros((out_ch, H, W))
    for r in range(H):
        for c in range(W):
            for o in range(out_ch):
                acc = float(bias[o])
                for i_tap in range(kh):
                    for j_tap in range(kw):
                        if mask_kind == "vertical":
                            rr = r + i_tap - kh
                            cc = c + j_tap - (kw - 1)
                        else:
                            rr = r
                            cc = c + j_tap - kw
                        if 0 <= rr < H and 0 <= cc < W:
                            for i in range(in_ch):
                                acc += float(kernel[o][i][i_tap][j_tap]) * float(img[i][rr][cc])
                out[o][r][c] = acc
    return out


def dependency_tree_nodes(L, stacks):
    """Count hidden+head nodes one steady-state sample needs, per stack trees.

    Walks the dependency graph by position sets: a stack-top node at relative
    position 0, each layer (top dilation 2^(L-1) downwards) doubling the
    position set.  Nodes counted per layer are the set sizes; the stack input
    positions are the previous stack's already-materialised outputs.
    """
    total = 0
    for _ in range(stacks):
        need = {0}
        for depth in range(L):
            total += len(need)
            d = 2 ** (L - 1 - depth)
            need = {p - off for p in need for off in (0, d)}
    return total + 1  # linear head


def strided_input_positions(layers, kernel_size, t):
    """The input positions output t of a strided plan's `layers`, (kind,
    stride) pairs, reads, by growing position sets from the output down: an
    up layer maps p to p // s, a down layer node j to s*j-k+1 .. s*j.
    Positions below 0 count, as if the sequence had no start."""
    positions = {t}
    for kind, s in reversed(layers):
        if kind == "up":
            positions = {p // s for p in positions}
        else:
            k = kernel_size
            positions = {s * j - (k - 1) + i for j in positions for i in range(k)}
    return positions


def strided_receptive_field_sets(plan, kernel_size):
    """Receptive field of a strided plan (its `layers` and `period`), max over
    phase: the most input positions one output reads."""
    return max(len(strided_input_positions(plan.layers, kernel_size, phase))
               for phase in range(plan.period))


def perturbation_influence(forward, x, t_out, eps=1.0):
    """Indices of x whose perturbation changes forward(x)[t_out]."""
    base = forward(x)
    hits = []
    for i in range(len(x)):
        xp = np.array(x, copy=True)
        xp[i] += eps
        if forward(xp)[t_out] != base[t_out]:
            hits.append(i)
    return hits


def draw_each_uniform(rng, shapes):
    """Each weight of `shapes`, (out, in, taps, bias drawn), drawn by its own
    `rng.uniform(-a, a, n)`, a = 0.5/sqrt(in * the product of taps), kernel
    then bias, and cast to float32: a (kernel, fused) pair per weight, with
    `fused` = [W_0 | ... | W_{k-1} | b] filled element by element (a bias
    not drawn is zeros)."""
    weights = []
    for out, in_ch, taps, bias in shapes:
        k = math.prod(taps)
        n = out * in_ch * k
        a = 0.5 / math.sqrt(in_ch * k)
        values = rng.uniform(-a, a, n + out * bias).astype(np.float32)
        kernel = values[:n].reshape((out, in_ch) + tuple(taps))
        flat = values[:n].reshape(out, in_ch, k)
        fused = np.zeros((out, k * in_ch + 1), np.float32)
        for o in range(out):
            for j in range(k):
                for i in range(in_ch):
                    fused[o, j * in_ch + i] = flat[o, i, j]
            if bias:
                fused[o, k * in_ch] = values[n + o]
        weights.append((kernel, fused))
    return weights
