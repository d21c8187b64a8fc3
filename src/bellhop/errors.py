"""Exception hierarchy shared by all bellhop modules, and what counts as a number."""

import math
import numbers


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
    endpoints must be finite floats: NaN, ±inf and an integer past the float
    range, such as 10**400, are not."""


class MalformedInput(BellhopError):
    """A family or density record is not a JSON object, lacks a required key,
    or has a field of the wrong type or shape; a family record's stored
    expectations differ from its weights' values; density weights are not a
    2-d array with cells; or a step function's end, value or point, or an
    argument of log_curve, is no number."""


class EmptyRect(BellhopError):
    """Density rectangle has a degenerate side."""


class DomainMismatch(BellhopError):
    """Density rectangle not compatible with the observables' domains."""


class InputOutOfRange(BellhopError):
    """A correlator is not a real number of magnitude at most 1, a setting is
    not a real number or too large (or not finite) for its quarter bands to be
    distinct floats, or an optimize_family grid is wider than chsh.MAX_GRID."""


class GridMisaligned(BellhopError):
    """A grid for optimize_family is not two integers that are positive
    multiples of 4, so the observable thresholds would cut through cells."""


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


def _finite(*values) -> bool:
    """Whether every value is a finite float: NaN and ±inf are not, and
    neither is an integer past the float range, whose float() overflows."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


# float and int go before the slow numbers ABCs: weights lists and step pieces are checked
def _is_int(value) -> bool:
    """An integer in the numbers sense, with bool counted as not one."""
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number in the numbers sense, with bool counted as not one."""
    return type(value) is float or (
        isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool))


_ECHO = 40  # the most characters of text, or digits of an integer, a message echoes


def _show(value, noun: str = "integer") -> str:
    """repr(value), but text past _ECHO characters cut with '…' and an integer past
    _ECHO digits, also in a list or tuple, as 'a N-digit integer' (repr raises past 4300)."""
    if isinstance(value, str) and len(value) > _ECHO:
        return repr(value[:_ECHO] + "…")
    if isinstance(value, (list, tuple)):
        items = ", ".join(_show(v, noun) for v in value)
        return f"[{items}]" if isinstance(value, list) else f"({items}{',' * (len(value) == 1)})"
    if not (_is_int(value) and abs(value) >= 10**_ECHO):
        return repr(value)
    digits = int(math.log10(abs(value)))  # the digits less one, give or take one
    digits += (abs(value) >= 10 ** (digits + 1)) - (abs(value) < 10**digits)
    return f"a {digits + 1}-digit {noun}"
