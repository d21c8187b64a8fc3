"""Exception hierarchy shared by all bellhop modules."""


class BellhopError(Exception):
    """Base class for all bellhop errors."""


class NonMonotoneBoundaries(BellhopError):
    """Step-function boundaries must be strictly increasing."""


class ArityMismatch(BellhopError):
    """Number of values must be one less than number of boundaries."""


class OutOfDomain(BellhopError):
    """Evaluation point lies outside every piece of the function."""


class UndefinedPoint(BellhopError):
    """Evaluation point coincides with an excluded breakpoint."""


class EmptyDomain(BellhopError):
    """Combined function has empty domain: it does not exist at all."""


class AxisMismatch(BellhopError):
    """Same-axis algebra applied to functions on different axes."""


class NegativeWeight(BellhopError):
    """Density weights must be nonnegative."""


class ZeroTotalMass(BellhopError):
    """Density weights must not all be zero."""


class NonFiniteInput(BellhopError):
    """Step boundaries and values, density weights, their total and rectangle
    endpoints must be finite."""


class MalformedInput(BellhopError):
    """A family or density record is not a JSON object, lacks a required key,
    or has a field of the wrong type or shape; or density weights are not a
    2-d array with at least one cell."""


class EmptyRect(BellhopError):
    """Density rectangle has a degenerate side."""


class DomainMismatch(BellhopError):
    """Density rectangle not compatible with the observables' domains."""


class InputOutOfRange(BellhopError):
    """Correlator magnitude exceeds 1."""


class GridMisaligned(BellhopError):
    """Observable thresholds cut through grid cells."""


class NonConvergence(BellhopError):
    """Optimizer failed to reach tolerance within the iteration cap."""


class ConfigInvalid(BellhopError):
    """Experiment configuration violates its invariants."""


class InsufficientTrials(BellhopError):
    """Too few trials in a setting pair to estimate a standard error."""


class UnknownSymbol(BellhopError):
    """Expression uses a symbol not declared in the environment."""


class ExprSyntaxError(BellhopError):
    """Malformed expression text."""

    def __init__(self, message, position, expected=()):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected)
