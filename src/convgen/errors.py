"""Exception types shared across the library."""


class ShapeError(ValueError):
    """An array does not have the shape an operation requires."""


class InvalidParameterError(ValueError):
    """A structural parameter (stride, capacity, spec field) is out of range."""


class EmptyInputError(ValueError):
    """An operation received a zero-length input sequence."""


class InsufficientContextError(ValueError):
    """The input is too short (or small) for the requested kernel footprint."""


class ScheduleViolationError(RuntimeError):
    """A cache was popped/pushed outside its firing schedule.

    This always indicates a bug in an engine, never a data problem, so it is
    raised eagerly instead of producing plausible-looking output.
    """


class UnsupportedTopologyError(ValueError):
    """Layer strides would require a fractional firing period."""
