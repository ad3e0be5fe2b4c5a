"""Outside-in tracer: wraps the public entry points of each `convgen`
module for the traced run and restores them afterwards.

Spans nest strictly (one thread), so a span's self time is its duration
minus the durations of its direct children.  Spans are aggregated per name
in memory (calls, total and self seconds, batch columns) rather than kept
one by one, which bounds memory on long runs.

The engines import kernels by name (`from .tensor import conv1d_point`), so
each kernel is patched in every module that holds a reference to it, not
only in `convgen.tensor`.
"""

from __future__ import annotations

import statistics
import time

from convgen import cache, dilated, image2d, strided, tensor


def _tap_cols(args) -> int:
    """Batch columns of conv1d_point(w, taps, ...) or transposed_point(w, r, vec, ...)."""
    v = args[1][0] if isinstance(args[1], (list, tuple)) else args[2]
    return 1 if v.ndim == 1 else v.shape[1]


def _vconv_cols(args) -> int:
    """_vconv_row(w, cache) computes one node per (column, batch element)."""
    rc = args[1]
    return rc.width * (rc.batch or 1)


def _pair_cols(args) -> int:
    """_PairState.feed fires on every second row: one down row and two up rows."""
    pair, vc_row = args[0], args[2]
    return 3 * vc_row.shape[1] * vc_row.shape[2] if pair.count % 2 == 0 else 0


# (span name, owners patched, attribute, node columns per call or None).  The
# two private image2d spans exist for their node columns: together with the
# kernels they account for every node evaluation OpCounter records.
PATCHES = (
    ("tensor.conv1d_point", (tensor, dilated, strided, image2d), "conv1d_point", _tap_cols),
    ("tensor.transposed_point", (tensor, strided), "transposed_point", _tap_cols),
    ("cache.FifoCache.pop", (cache.FifoCache,), "pop", None),
    ("cache.FifoCache.push", (cache.FifoCache,), "push", None),
    ("cache.FifoCache.fires", (cache.FifoCache,), "fires", None),
    ("cache.RowCache.push_row", (cache.RowCache,), "push_row", None),
    ("cache.RowCache.rows_stack", (cache.RowCache,), "rows_stack", None),
    ("dilated.incremental_step", (dilated,), "incremental_step", None),
    ("strided.incremental_step", (strided,), "strided_incremental_step", None),
    ("image2d.vertical_row_pass", (image2d,), "vertical_row_pass", None),
    ("image2d.pixel_step", (image2d,), "_pixel_step", None),
    ("image2d._vconv_row", (image2d,), "_vconv_row", _vconv_cols),
    ("image2d._PairState.feed", (image2d._PairState,), "feed", _pair_cols),
)


class Span:
    __slots__ = ("calls", "total", "self_", "cols")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_ = 0.0
        self.cols = 0


class Tracer:
    """Per-name span aggregates; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans = {name: Span() for name, *_ in PATCHES}
        self._stack = []
        self._saved = []

    def wrap(self, fn, span: Span, cols=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if cols is not None:
                span.cols += cols(args)
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                span.calls += 1
                span.total += dur
                span.self_ += dur - child[0]
                if stack:
                    stack[-1][0] += dur

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owners, attr, cols in PATCHES:
            original = vars(owners[0])[attr]
            wrapper = self.wrap(original, self.spans[name], cols)
            for owner in owners:
                self._saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def kernel_cols(self) -> int:
        """Node evaluations implied by the wrapped calls (compare with OpCounter)."""
        return sum(s.cols for s in self.spans.values())


def patched_names() -> list:
    """Every (owner, attribute, current object) the tracer touches."""
    return [(o, a, vars(o)[a]) for _, owners, a, _ in PATCHES for o in owners]


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapper adds around a call, from an empty wrapped function."""
    tracer = Tracer()
    span = Span()

    def empty():
        return None

    wrapped = tracer.wrap(empty, span)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            empty()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    return statistics.median(costs)
