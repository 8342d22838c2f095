"""Error types raised across the package, and the checks of scalar inputs.

Everything derives from VarwassError so callers can catch broadly; the
numeric-input errors also derive from ValueError because that is what a
plain-numpy caller would expect from bad arguments.

Each scalar rule has one check here, a chained comparison that NaN fails.
"""

import math


class VarwassError(Exception):
    """Base class for all package errors."""


class InvalidDomainError(VarwassError, ValueError):
    """Grid construction with a >= b or too few cells."""


class SizeMismatchError(VarwassError, ValueError):
    """An array or a sequence has the wrong length for the grid or call it meets."""


class BoundaryFluxError(VarwassError, ValueError):
    """A face flux or velocity carries a nonzero value on a boundary face."""


class ExponentRangeError(VarwassError, ValueError):
    """Exponent field violates the 1 < p- <= p+ < inf bounds (assumption A1)."""


class NonpositiveParameterError(VarwassError, ValueError):
    """A positive scalar parameter (lambda, h, eps, ...) is <= 0, inf or NaN."""


class InvalidParameterError(VarwassError, ValueError):
    """A parameter lies outside its allowed set or range: an unknown backend,
    a count below its minimum, a negative or non-finite horizon."""


class InvalidDensityError(VarwassError, ValueError):
    """Cell masses or a cell field have bad content: empty or not 1-D,
    non-finite, negative, no positive total, or off unit mass."""


class MarginalMismatchError(VarwassError, ValueError):
    """Transport marginals disagree in total mass or length."""


class NegativeCouplingError(VarwassError, ValueError):
    """A transport plan has an entry below -MARGINAL_TOL."""


class NonzeroMeanError(VarwassError, ValueError):
    """A tangent vector does not integrate to zero."""


class VanishingDensityError(VarwassError, ValueError):
    """Flux must cross a face where the density vanishes."""


class SampleIndexError(VarwassError, IndexError):
    """A sample index lies outside the trajectory it indexes."""


class NumericalBlowupError(VarwassError, RuntimeError):
    """A time integration produced NaN or left the trusted range."""


class ConfigError(VarwassError, ValueError):
    """Experiment configuration could not be parsed (CLI exit code 2)."""


class ConfigValidationError(VarwassError, ValueError):
    """Experiment configuration parsed but violates a constraint (exit 3)."""


def check_positive(x, name: str, error: type = NonpositiveParameterError) -> None:
    """Raise error unless x is finite and > 0; an array, entry by entry."""
    try:
        if 0.0 < x < math.inf:
            return
    except ValueError:  # an array of other than one entry
        if ((0.0 < x) & (x < math.inf)).all():
            return
    raise error(f"{name} must be positive and finite, got {x}")


def check_nonnegative(x, name: str) -> None:
    """Raise InvalidParameterError unless x is finite and >= 0."""
    if not 0.0 <= x < math.inf:
        raise InvalidParameterError(f"{name} must be nonnegative and finite, got {x}")


def check_count(n, name: str) -> None:
    """Raise InvalidParameterError unless n is at least 1 and finite."""
    if not 1 <= n < math.inf:
        raise InvalidParameterError(f"{name} must be at least 1, got {n}")
