"""convgen: cached and naive generation engines for convolutional
autoregressive networks, with exact op-count instrumentation.

Three built-in model families, each with a naive engine (recompute the full
receptive field per sample) and a cached engine (hidden states cached per
layer, one new node per layer per step):

- ``dilated``  1D stacks of two-tap dilated causal convs (doubling dilations)
- ``strided``  1D stride-2 encoder/decoder with a burst firing schedule
- ``image2d``  2D raster-order model with vertical/horizontal streams and
  row caches

`generate(network, n_steps, engine="naive" | "cached", batch=, prime=)`
runs either engine of any family and returns the outputs as (n_steps,
batch).  The two engines of a family produce identical samples (image2d:
equal to float32 noise); the cached one does linear instead of exponential
work per sample.  `convgen.bench` holds `generate`, the batch step it runs
(`init` / `step`, one protocol for all six engines: a fresh float32
(batch,) array per step) and the benchmark/verification command line
(installed as ``convgen-bench``).  Every network carries its schedule's
`period`, its sequence `length` (None for 1D) and a whole-sequence
`forward`.

This namespace holds the user-facing API.  Kernels (`convgen.tensor`), row
caches (`convgen.cache`) and each family's own `*_init` / `*_step`
functions, which `perfbench/` calls, are imported from their modules.
"""

from .dilated import (
    NetworkSpec,
    build_network,
    forward_full,
    receptive_field,
)
from .errors import (
    EmptyInputError,
    InsufficientContextError,
    InvalidParameterError,
    ScheduleViolationError,
    ShapeError,
    UnsupportedTopologyError,
)
from .image2d import (
    ImageSpec,
    build_image_network,
    forward_image,
    receptive_field_2d,
    write_pgm,
)
from .strided import (
    StridedPlan,
    build_strided_network,
    firing_trace,
    format_trace,
)
from .tensor import ConvWeights, OpCounter

__version__ = "0.1.0"


def __getattr__(name):  # so that `python -m convgen.bench` does not find it imported
    if name != "generate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .bench import generate
    return generate


__all__ = [
    "ConvWeights",
    "EmptyInputError",
    "ImageSpec",
    "InsufficientContextError",
    "InvalidParameterError",
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
    "generate",
    "receptive_field",
    "receptive_field_2d",
    "write_pgm",
]
