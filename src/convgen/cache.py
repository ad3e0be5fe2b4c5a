"""Hidden-state caching machinery: 2D row caches.
(The firing schedule of strided/transposed stacks is `strided.StridedPlan`.)

A `RowCache` holds the rows a 2D vertical conv reads in a ring of
zero-left-padded slots, so `column(row, lo, hi, rows)` fills the conv's
fused column over any run of output columns of one or more output rows with
one copy per run of adjacent slots.  It keeps no row cursor: the engine
writes each row in place and passes the output row it reads.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import InvalidParameterError, ScheduleViolationError
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
    """Ring of the rows a 2D vertical conv reads: output row t reads rows
    t - `height` .. t - 1 (zero rows before the first), each (channels,
    width, batch).  height and kw are the owning layer's filter height and width.

    Row t lives in slot t % `slots` of `ring`, (slots, channels, (pad +
    width) * batch), each slot left-padded with `pad` >= kw - 1 zero
    columns, so a row's kw column windows (window j at column c holds row
    column c - kw + 1 + j, zero left of the image) are one read-only view.
    `body` views every slot's row, (slots, channels, width, batch); the
    engine writes row t to `body[t % slots]`, with spare slots ahead of the
    window that reads it, and passes the output row to `column(row, lo, hi,
    rows)`, which fills the conv's fused column over output columns lo ..
    hi-1 of rows row - rows + 1 .. row: scratch, built on first use.
    `push_row` and `rows_stack` are names only, for perfbench's tracer.
    """

    __slots__ = ("height", "width", "channels", "batch", "kw", "slots", "pad", "ring",
                 "body", "_windows", "_columns")

    def __init__(self, height: int, width: int, channels: int, batch: int, kw: int,
                 slots: int, pad: int):
        if min(height, width, channels, batch, kw) < 1 or slots < height or pad < kw - 1:
            raise InvalidParameterError(
                "height, width, channels, batch, kw must be >= 1, slots >= height and pad >= "
                f"kw - 1 (got {height}, {width}, {channels}, {batch}, {kw}, {slots}, {pad})")
        self.height, self.width, self.channels, self.batch = height, width, channels, batch
        self.kw, self.slots, self.pad = kw, slots, pad
        self.ring = zeros((slots, channels, (pad + width) * batch))
        self.body = self.ring[:, :, pad * batch :].reshape(slots, channels, width, batch)
        s_slot, s_ch, s_col = self.ring.strides  # per slot, (kw, channels, width*batch) windows
        self._windows = np.ndarray((slots, kw, channels, width * batch), _F32, self.ring,
                                   (pad - kw + 1) * batch * s_col, (s_slot, batch * s_col, s_ch, s_col))
        self._windows.flags.writeable = False
        self._columns = {}  # (lo, hi, rows) -> (Column, its fills), built on first use

    def __reduce__(self):  # copies and pickles rebuild the views over their own ring
        return _restore_row_cache, (self.height, self.width, self.channels, self.batch, self.kw,
                                    self.slots, self.pad, self.ring)

    def push_row(self, *args) -> None:  # a name only: the engine writes `body` itself
        raise ScheduleViolationError("RowCache keeps no cursor to push a row at")

    def column(self, row: int, lo: int = 0, hi: int | None = None, rows: int = 1) -> Column:
        """The fused column [every read row's kw windows, oldest first; 1] over
        output columns lo .. hi-1 of output rows row - rows + 1 .. row side by
        side, each window a row older than the next: a copy per row and slot run."""
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
        for dest, windows in runs[(row - self.height - rows + 1) % self.slots]:
            dest[...] = windows
        return column

    def rows_stack(self, *args) -> np.ndarray:  # a name only: no engine stacks its rows
        raise ScheduleViolationError("RowCache keeps no cursor to stack rows from")

    def stored_values(self) -> int:
        """Scalars of the cached rows, not counting the zero pad columns."""
        return self.height * self.channels * self.width * self.batch


def _restore_row_cache(height, width, channels, batch, kw, slots, pad, ring) -> RowCache:
    rc = RowCache(height, width, channels, batch, kw, slots, pad)
    rc.ring[...] = ring
    return rc
