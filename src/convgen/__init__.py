"""convgen: cached and naive generation engines for convolutional
autoregressive networks, with exact op-count instrumentation.

Three built-in model families, each with a naive engine (recompute the full
receptive field per sample) and a cached engine (FIFO hidden-state caches,
one new node per layer per step):

- ``dilated``  1D stacks of two-tap dilated causal convs (doubling dilations)
- ``strided``  1D stride-2 encoder/decoder with a burst firing schedule
- ``image2d``  2D raster-order model with vertical/horizontal streams and
  row caches

The two engines of a family produce identical samples; the cached one does
linear instead of exponential work per sample.  `convgen.bench` is the
benchmark/verification command line (installed as ``convgen-bench``).

This namespace holds the user-facing API.  Kernels (`convgen.tensor`),
caches and schedules (`convgen.cache`) and the per-step `*_init` / `*_step`
engine functions (`convgen.dilated`, `convgen.strided`, `convgen.image2d`)
are imported from their own modules.
"""

from .dilated import (
    NetworkSpec,
    build_network,
    forward_full,
    incremental_generate,
    naive_generate,
    receptive_field,
)
from .errors import (
    EmptyInputError,
    InsufficientContextError,
    InvalidParameterError,
    InvalidRowError,
    ScheduleViolationError,
    ShapeError,
    UnsupportedTopologyError,
)
from .image2d import (
    ImageSpec,
    build_image_network,
    forward_image,
    image_incremental_generate,
    image_naive_generate,
    receptive_field_2d,
    write_pgm,
)
from .strided import (
    StridedPlan,
    build_strided_network,
    firing_trace,
    format_trace,
    strided_incremental_generate,
    strided_naive_generate,
)
from .tensor import ConvWeights, OpCounter

__version__ = "0.1.0"

__all__ = [
    "ConvWeights",
    "EmptyInputError",
    "ImageSpec",
    "InsufficientContextError",
    "InvalidParameterError",
    "InvalidRowError",
    "NetworkSpec",
    "OpCounter",
    "ScheduleViolationError",
    "ShapeError",
    "StridedPlan",
    "UnsupportedTopologyError",
    "build_image_network",
    "build_network",
    "build_strided_network",
    "firing_trace",
    "format_trace",
    "forward_full",
    "forward_image",
    "image_incremental_generate",
    "image_naive_generate",
    "incremental_generate",
    "naive_generate",
    "receptive_field",
    "receptive_field_2d",
    "strided_incremental_generate",
    "strided_naive_generate",
    "write_pgm",
]
