"""Hidden-state caching machinery: a checked FIFO queue and 2D row caches.
(The firing schedule of strided/transposed stacks is `strided.StridedPlan`.)

`_frozen_zeros(width)` is the one shared read-only zero vector per width
that pre-fills a `FifoCache`, so the pre-fill costs no allocation per slot
and cannot be corrupted through a reference read from the cache.

A `FifoCache` holds exactly `capacity` states and is pre-filled with zeros
so that popping at the start of a sequence reads the same implicit causal
padding the naive engine uses.  Pop and push strictly alternate; any other
order is a scheduling bug and raises instead of producing plausible output.
No engine uses it any more (the dilated engine keeps one ring read at row
offset + t % dilation per layer); it is kept for its own tests and for the
benchmark tracer, which patches its methods.

A `RowCache` holds the last kh rows a 2D vertical conv reads, in one
preallocated ring with every row left-padded by kw - 1 zero columns.  A
cached row's kw shifted column windows are then one read-only view, so
`column()` fills the conv's fused column, allocated once by its first
call, with one copy per cached row, and a push is one copy into the oldest
slot.
"""

from __future__ import annotations

from collections import deque
from functools import cache

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidRowError,
    ScheduleViolationError,
    ShapeError,
)
from .tensor import DTYPE, _frozen, zeros


_F32 = np.dtype(DTYPE)


@cache
def _frozen_zeros(width: int) -> np.ndarray:
    return _frozen(zeros(width))


class FifoCache:
    """Fixed-capacity FIFO of hidden-state vectors with a firing period.

    The state popped at firing step n is exactly the state pushed at firing
    step n - capacity (zero vectors before the start).
    """

    __slots__ = ("capacity", "width", "cache_every", "phase", "_slots", "_awaiting_push")

    def __init__(self, capacity: int, width: int, cache_every: int = 1):
        if capacity < 1 or width < 1 or cache_every < 1:
            raise InvalidParameterError(
                f"capacity, width, cache_every must be >= 1 "
                f"(got {capacity}, {width}, {cache_every})"
            )
        self.capacity = capacity
        self.width = width
        self.cache_every = cache_every
        self.phase = 0  # firing offset within the period; engines fire at t % cache_every == phase
        self._slots = deque((_frozen_zeros(width),) * capacity)
        self._awaiting_push = False

    def fires(self, t: int) -> bool:
        return t % self.cache_every == self.phase

    def pop(self) -> np.ndarray:
        if self._awaiting_push:
            raise ScheduleViolationError("pop called twice without an intervening push")
        if not self._slots:
            raise ScheduleViolationError("pop from an empty cache")
        self._awaiting_push = True
        return self._slots.popleft()

    def push(self, state: np.ndarray) -> None:
        if not self._awaiting_push:
            raise ScheduleViolationError("push called without a preceding pop")
        if type(state) is not np.ndarray or state.dtype is not _F32:
            state = np.asarray(state, dtype=DTYPE)
        if state.shape != (self.width,):
            raise ShapeError(f"state shape {state.shape} != ({self.width},)")
        if len(self._slots) >= self.capacity:
            raise ScheduleViolationError("push would exceed cache capacity")
        self._slots.append(state)
        self._awaiting_push = False

    def __len__(self) -> int:
        return len(self._slots)

    def stored_values(self) -> int:
        """Total scalars currently held (memory instrumentation)."""
        return len(self._slots) * self.width


class RowCache:
    """Ring of the last `height` complete rows of a 2D feature stream.

    height == the filter height of the owning layer, width == the image
    width, kw == its filter width.  Rows rotate exactly once per generated
    image row and have shape (channels, width, batch).  All rows live in one
    preallocated ring, each left-padded with kw - 1 zero columns, so the kw
    column windows a vertical conv reads from a row (window j at column c
    holds row column c - kw + 1 + j, zero left of the image) are one
    read-only (kw, channels, width, batch) view; `push_row` copies the new
    row into the oldest slot.  The fused column that `column()` fills is
    scratch, rewritten on every call: `stored_values` does not count it.
    """

    __slots__ = (
        "height", "width", "channels", "batch", "kw", "row_shape", "_ring", "_windows", "_head",
        "_column", "_column_rows",
    )

    def __init__(self, height: int, width: int, channels: int, batch: int, kw: int):
        if min(height, width, channels, batch, kw) < 1:
            raise InvalidParameterError(
                "height, width, channels, batch, kw must be >= 1 "
                f"(got {height}, {width}, {channels}, {batch}, {kw})"
            )
        self.height = height
        self.width = width
        self.channels = channels
        self.batch = batch
        self.kw = kw
        self.row_shape = (channels, width, batch)
        self._ring = zeros((height, channels, kw - 1 + width, batch))
        s_row, s_ch, s_col, s_b = self._ring.strides
        windows = np.ndarray(
            (height, kw, channels, width, batch),
            _F32,
            self._ring,
            strides=(s_row, s_col, s_ch, s_col, s_b),
        )
        windows.flags.writeable = False
        self._windows = tuple(windows)
        self._head = 0  # the oldest slot, overwritten by the next push
        self._column = self._column_rows = None  # allocated by the first column()

    def __reduce__(self):
        # copies and pickles rebuild the window views over their own ring
        return _restore_row_cache, (
            self.height, self.width, self.channels, self.batch, self.kw, self._ring, self._head
        )

    def push_row(self, row: np.ndarray) -> None:
        """Drop the oldest row and store a copy of a complete new one."""
        row = np.asarray(row, dtype=DTYPE)
        if row.shape != self.row_shape:
            raise InvalidRowError(
                f"row shape {row.shape} != {self.row_shape} (partial rows rejected)"
            )
        self._ring[self._head, :, self.kw - 1 :] = row
        self._head = (self._head + 1) % self.height

    def windows(self) -> tuple:
        """Every cached row's (kw, channels, width, batch) window view, oldest first."""
        h = self._head
        return self._windows[h:] + self._windows[:h]

    def column(self) -> np.ndarray:
        """The fused column [every cached row's kw windows, oldest first; 1]
        of shape (height*kw*channels + 1, width*batch), filled in place."""
        if self._column is None:
            rows = self.height * self.kw * self.channels
            column = np.empty((rows + 1, self.width * self.batch), DTYPE)
            column[-1] = 1.0
            self._column = column
            self._column_rows = tuple(column[:-1].reshape(self.height, self.kw, *self.row_shape))
        for rows, windows in zip(self._column_rows, self.windows()):
            rows[...] = windows
        return self._column

    def rows_stack(self) -> np.ndarray:
        """All cached rows as one array, oldest first: (channels, height, width, batch)."""
        return np.stack([w[-1] for w in self.windows()], axis=1)

    def stored_values(self) -> int:
        """Scalars of the cached rows, not counting the zero pad columns."""
        return self.height * self.channels * self.width * self.batch


def _restore_row_cache(height, width, channels, batch, kw, ring, head) -> RowCache:
    rc = RowCache(height, width, channels, batch, kw)
    rc._ring[...] = ring
    rc._head = head
    return rc
