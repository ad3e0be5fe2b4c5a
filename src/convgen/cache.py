"""Hidden-state caching machinery: 2D row caches.
(The firing schedule of strided/transposed stacks is `strided.StridedPlan`.)

A `RowCache` holds the last kh rows a 2D vertical conv reads in a ring of
zero-left-padded slots, so `column(lo, hi, rows)` fills the conv's fused
column over any run of output columns of one or more output rows with one
copy per run of adjacent slots; with spare slots a writer stores the next
rows in place, ahead of that window.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import InvalidParameterError, InvalidRowError, ScheduleViolationError
from .tensor import DTYPE, Column, zeros


_F32 = np.dtype(DTYPE)


class FifoCache:
    """A name only: no engine has used a FIFO queue since the dilated engine
    moved to one ring per state.  perfbench's tracer patches these methods."""

    __slots__ = ()

    def fires(self, *args) -> bool:
        raise ScheduleViolationError("FifoCache holds no queue")

    def pop(self, *args) -> np.ndarray:
        raise ScheduleViolationError("FifoCache holds no queue")

    def push(self, *args) -> None:
        raise ScheduleViolationError("FifoCache holds no queue")


class RowCache:
    """Ring of the rows a 2D vertical conv reads: after `count` rows, the last
    `height` of them (zero rows before the first), each (channels, width,
    batch).  height and kw are the owning layer's filter height and width.

    Row t lives in slot t % `slots` of `ring`, (slots, channels, (pad +
    width) * batch), each slot left-padded with `pad` >= kw - 1 zero
    columns, so a row's kw column windows (window j at column c holds row
    column c - kw + 1 + j, zero left of the image) are one read-only view.
    `body` views every slot's row, (slots, channels, width, batch): a writer
    may store rows count .. count + slots - height - 1 there, ahead of the
    window, and advances `count` itself; `push_row` copies one in.
    `column(lo, hi, rows)` fills the conv's fused column over output
    columns lo .. hi-1 of `rows` output rows: scratch, built on first use.
    """

    __slots__ = ("height", "width", "channels", "batch", "kw", "slots", "pad", "row_shape",
                 "ring", "body", "count", "_windows", "_columns")

    def __init__(self, height: int, width: int, channels: int, batch: int, kw: int,
                 slots: int, pad: int):
        if min(height, width, channels, batch, kw) < 1 or slots < height or pad < kw - 1:
            raise InvalidParameterError(
                "height, width, channels, batch, kw must be >= 1, slots >= height and pad >= "
                f"kw - 1 (got {height}, {width}, {channels}, {batch}, {kw}, {slots}, {pad})")
        self.height, self.width, self.channels, self.batch = height, width, channels, batch
        self.kw, self.slots, self.pad, self.row_shape = kw, slots, pad, (channels, width, batch)
        self.ring = zeros((slots, channels, (pad + width) * batch))
        self.body = self.ring[:, :, pad * batch :].reshape(slots, *self.row_shape)
        self.count = 0
        s_slot, s_ch, s_col = self.ring.strides  # per slot, (kw, channels, width*batch) windows
        self._windows = np.ndarray((slots, kw, channels, width * batch), _F32, self.ring,
                                   (pad - kw + 1) * batch * s_col, (s_slot, batch * s_col, s_ch, s_col))
        self._windows.flags.writeable = False
        self._columns = {}  # (lo, hi, rows) -> (Column, its fills), built on first use

    def __reduce__(self):  # copies and pickles rebuild the views over their own ring
        return _restore_row_cache, (self.height, self.width, self.channels, self.batch, self.kw,
                                    self.slots, self.pad, self.ring, self.count)

    def push_row(self, row: np.ndarray) -> None:
        """Drop the oldest row and store a copy of a complete new one."""
        row = np.asarray(row, dtype=DTYPE)
        if row.shape != self.row_shape:
            raise InvalidRowError(
                f"row shape {row.shape} != {self.row_shape} (partial rows rejected)"
            )
        self.body[self.count % self.slots] = row
        self.count += 1

    def windows(self) -> tuple:
        """Every cached row's (kw, channels, width, batch) window view, oldest first."""
        return tuple(self._windows[t % self.slots].reshape(self.kw, *self.row_shape)
                     for t in range(self.count - self.height, self.count))

    def column(self, lo: int = 0, hi: int | None = None, rows: int = 1) -> Column:
        """The fused column [every cached row's kw windows, oldest first; 1] over
        output columns lo .. hi-1 of the last `rows` output rows side by side,
        each window a row older than the next: a copy per row and slot run."""
        hi = self.width if hi is None else hi
        try:
            column, runs = self._columns[lo, hi, rows]
        except KeyError:
            H, S, windows = self.height, self.slots, self._windows[..., lo * self.batch : hi * self.batch]
            buf = np.ones((H * self.kw * self.channels + 1, rows * windows.shape[-1]), DTYPE)
            column = Column(buf, self.channels)
            dests = buf[:-1].reshape(H, self.kw, self.channels, rows, -1)
            runs = [[] for _ in range(S)]  # per slot of the oldest row read: (dest, windows)
            for s, q in product(range(S), range(rows)):
                t, dest = (s + q) % S, dests[:, :, :, q]
                k = min(H, S - t)
                runs[s] += [(dest[:k], windows[t : t + k])] + [(dest[k:], windows[: H - k])] * (k < H)
            self._columns[lo, hi, rows] = column, runs
        for dest, windows in runs[(self.count - self.height - rows + 1) % self.slots]:
            dest[...] = windows
        return column

    def rows_stack(self) -> np.ndarray:
        """All cached rows as one array, oldest first: (channels, height, width, batch)."""
        return np.stack([w[-1] for w in self.windows()], axis=1)

    def stored_values(self) -> int:
        """Scalars of the cached rows, not counting the zero pad columns."""
        return self.height * self.channels * self.width * self.batch


def _restore_row_cache(height, width, channels, batch, kw, slots, pad, ring, count) -> RowCache:
    rc = RowCache(height, width, channels, batch, kw, slots, pad)
    rc.ring[...] = ring
    rc.count = count
    return rc
