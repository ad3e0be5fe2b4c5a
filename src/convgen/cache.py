"""Hidden-state caching machinery: per-layer FIFO queues, firing schedules
for strided/transposed stacks, and 2D row caches.

A `FifoCache` holds exactly `capacity` states (capacity == the dilation of
the owning layer) and is pre-filled with zeros so that popping at the start
of a sequence reads the same implicit causal padding the naive engine uses.
Pop and push strictly alternate; any other order is a scheduling bug and
raises instead of producing plausible output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidRowError,
    ScheduleViolationError,
    ShapeError,
    UnsupportedTopologyError,
)
from .tensor import DTYPE, zeros


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
        self._slots = deque(zeros(width) for _ in range(capacity))
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


@dataclass(frozen=True)
class Schedule:
    """Per-layer firing description for a strided/transposed stack.

    Index 0 describes the network input stream; layer i of the stack is at
    index i.  `cache_every[i]` is the amortised update period obtained by
    multiplying by downsampling factors and dividing by upsampling factors
    along the stack.  Upsampling layers physically compute in bursts, so the
    step at which layer i actually computes new nodes is governed by
    `fire_every[i]` (the running maximum), producing `emit_count[i]` nodes
    per firing.  Firing offsets are fixed at 0.
    """

    cache_every: tuple[int, ...]
    fire_every: tuple[int, ...]
    emit_count: tuple[int, ...]
    period: int

    def fires(self, layer: int, t: int) -> bool:
        """True iff layer (1-based; 0 = input) computes new nodes at step t."""
        if t < 0:
            raise InvalidParameterError(f"step must be >= 0, got {t}")
        return t % self.fire_every[layer] == 0

    def firing_layers(self, t: int) -> tuple[int, ...]:
        return tuple(i for i in range(1, len(self.fire_every)) if self.fires(i, t))


def schedule_build(layer_factors) -> Schedule:
    """Derive the firing schedule from per-layer (kind, factor) pairs.

    `layer_factors` is a sequence of ("down"|"up"|"same", factor) tuples in
    input-to-output order.  Downsampling multiplies the running update
    period, upsampling divides it; a division that would leave a fractional
    period is an unsupported topology.
    """
    cache_every = [1]
    running = 1
    for kind, factor in layer_factors:
        if factor < 1:
            raise InvalidParameterError(f"stride factor must be >= 1, got {factor}")
        if kind == "down":
            running *= factor
        elif kind == "up":
            if running % factor != 0:
                raise UnsupportedTopologyError(
                    f"upsampling by {factor} at running period {running} "
                    "would need a fractional cache_every"
                )
            running //= factor
        elif kind != "same":
            raise InvalidParameterError(f"unknown layer kind {kind!r}")
        cache_every.append(running)
    fire_every = []
    peak = 1
    for v in cache_every:
        peak = max(peak, v)
        fire_every.append(peak)
    emit_count = [f // c for f, c in zip(fire_every, cache_every)]
    return Schedule(
        cache_every=tuple(cache_every),
        fire_every=tuple(fire_every),
        emit_count=tuple(emit_count),
        period=peak,
    )


class RowCache:
    """FIFO of the last `height` complete rows of a 2D feature stream.

    height == the filter height of the owning layer, width == the image
    width.  Rows rotate exactly once per generated image row.  Stored rows
    have shape (channels, width) or (channels, width, batch).
    """

    __slots__ = ("height", "width", "channels", "batch", "row_shape", "_rows")

    def __init__(self, height: int, width: int, channels: int, batch: int | None = None):
        if height < 1 or width < 1 or channels < 1:
            raise InvalidParameterError(
                f"height, width, channels must be >= 1 (got {height}, {width}, {channels})"
            )
        if batch is not None and batch < 1:
            raise InvalidParameterError(f"batch must be >= 1, got {batch}")
        self.height = height
        self.width = width
        self.channels = channels
        self.batch = batch
        self.row_shape = (channels, width) if batch is None else (channels, width, batch)
        self._rows = deque(zeros(self.row_shape) for _ in range(height))

    def push_row(self, row: np.ndarray) -> None:
        """Pop the oldest row and push a complete new one."""
        row = np.asarray(row, dtype=DTYPE)
        if row.shape != self.row_shape:
            raise InvalidRowError(
                f"row shape {row.shape} != {self.row_shape} (partial rows rejected)"
            )
        self._rows.popleft()
        self._rows.append(row)

    def rows_stack(self) -> np.ndarray:
        """All cached rows as one array, oldest first: (channels, height, width[, batch])."""
        return np.stack(list(self._rows), axis=1)

    def stored_values(self) -> int:
        return sum(int(r.size) for r in self._rows)
