"""Exception types shared across the package."""


class StableBranchError(Exception):
    """Base class for package-specific failures."""


class QuadratureError(StableBranchError):
    """A numerical integral failed its internal convergence check."""


class RegimeError(StableBranchError):
    """Experiment parameters fall outside the regime the experiment claims."""


class ConfigError(StableBranchError):
    """A config file or CLI invocation is malformed."""
