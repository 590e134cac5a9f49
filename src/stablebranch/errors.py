"""Exception types shared across the package, and the count check."""

import numbers


class StableBranchError(Exception):
    """Base class for package-specific failures."""


class QuadratureError(StableBranchError):
    """A numerical integral failed its internal convergence check."""


class RegimeError(StableBranchError):
    """Experiment parameters fall outside the regime the experiment claims."""


class ConfigError(StableBranchError):
    """A config file or CLI invocation is malformed."""


def check_count(value, name: str, least: int) -> int:
    """A count: ``value`` as an int if it is an integer (not a bool)
    >= ``least``, else ValueError naming it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
