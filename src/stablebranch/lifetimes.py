"""Particle lifetime laws.

Three families cover the regimes of interest: Exponential (the
memoryless classic), Gamma (finite mean, not memoryless), and
ParetoTail (regularly varying survival with infinite mean).  Each law
is given by its CDF; its survival function is 1 - cdf.  The ParetoTail
law is calibrated so that

    (1 - cdf(u)) * Gamma(1 - gamma) * u**gamma  ->  1   as u -> infinity,

i.e. the tail constant is exactly one; `make_pareto_tail` picks the
scale that achieves this.

Exponential and ParetoTail lifetimes are sampled by inverse CDF, one
uniform per draw; Gamma lifetimes by numpy's own `Generator.gamma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gammainc


def _as_array(u):
    return np.asarray(u, dtype=float)


@dataclass(frozen=True)
class Exponential:
    """Exponential lifetimes with the given rate."""

    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:  # NaN fails this too
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    name = "exponential"

    def cdf(self, u):
        u = _as_array(u)
        return np.where(u > 0.0, -np.expm1(-self.rate * u), 0.0)

    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng, size=None):
        v = rng.random(size=size)
        return -np.log1p(-v) / self.rate


@dataclass(frozen=True)
class Gamma:
    """Gamma lifetimes with shape ``shape`` and rate ``rate`` (mean shape/rate)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.rate < math.inf):
            raise ValueError("shape and rate must be positive and finite, "
                             f"got {self.shape} and {self.rate}")

    name = "gamma"

    def cdf(self, u):
        u = _as_array(u)
        return gammainc(self.shape, self.rate * np.clip(u, 0.0, None))

    def mean(self) -> float:
        return self.shape / self.rate

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)


@dataclass(frozen=True)
class ParetoTail:
    """Heavy-tailed lifetimes: 1 - cdf(u) = (1 + u/scale)**(-gamma), gamma in (0,1).

    The mean is infinite.
    """

    gamma: float
    scale: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    name = "pareto_tail"

    def cdf(self, u):
        u = _as_array(u)
        return np.where(u > 0.0, -np.expm1(-self.gamma * np.log1p(u / self.scale)), 0.0)

    def mean(self) -> float:
        return math.inf

    def sample(self, rng, size=None):
        v = rng.random(size=size)
        return self.scale * np.expm1(-np.log1p(-v) / self.gamma)


def make_pareto_tail(gamma: float) -> ParetoTail:
    """ParetoTail law whose tail constant equals one.

    1 - cdf(u) ~ scale**gamma * u**(-gamma) for large u, so requiring
    1 - cdf(u) ~ u**(-gamma) / Gamma(1-gamma) fixes
    scale = Gamma(1-gamma)**(-1/gamma).  For gamma = 1/2 this gives
    scale = 1/pi.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    scale = math.gamma(1.0 - gamma) ** (-1.0 / gamma)
    return ParetoTail(gamma=gamma, scale=scale)


LifetimeLaw = Exponential | Gamma | ParetoTail
