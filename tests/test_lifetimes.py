"""Lifetime law distributions and samplers."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from stablebranch import (
    Exponential,
    Gamma,
    ParetoTail,
    make_pareto_tail,
    replicate_stream,
)

LAWS = [
    Exponential(rate=1.3),
    Gamma(shape=2.0, rate=2.0),
    ParetoTail(gamma=0.5, scale=1.0 / math.pi),
]


SURVIVAL = {  # each law's survival function, written out independently
    "exponential": lambda law, u: np.exp(-law.rate * u),
    "gamma": lambda law, u: special.gammaincc(law.shape, law.rate * u),
    "pareto_tail": lambda law, u: (1.0 + u / law.scale) ** -law.gamma,
}


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.name)
def test_cdf_complement_is_the_survival_function(law):
    """A law is its CDF; 1 - cdf is its survival function, also far out
    in the tail, where `fastsim` integrates it to size chunks."""
    u = np.array([0.0, 0.1, 0.5, 2.0, 10.0, 40.0])
    assert_allclose(1.0 - law.cdf(u), SURVIVAL[law.name](law, u), rtol=1e-9, atol=1e-15)
    assert law.cdf(0.0) == 0.0


def test_means():
    assert Exponential(rate=2.0).mean() == 0.5
    assert Gamma(shape=3.0, rate=1.5).mean() == 2.0
    assert math.isinf(ParetoTail(gamma=0.7, scale=1.0).mean())


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.name)
def test_sampler_matches_cdf(law):
    """Empirical CDF at fixed probes vs the analytic one (binomial SE)."""
    rng = replicate_stream(31, 0)
    x = law.sample(rng, size=100_000)
    assert np.all(x >= 0)
    for q in [0.2, 1.0, 3.0]:
        p = law.cdf(q)
        se = math.sqrt(p * (1 - p) / len(x))
        assert abs(np.mean(x <= q) - p) < 4.0 * se


def test_finite_mean_sampler_means():
    rng = replicate_stream(32, 0)
    for law in [Exponential(rate=1.3), Gamma(shape=2.0, rate=2.0)]:
        x = law.sample(rng, size=200_000)
        se = x.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.mean() - law.mean()) < 4.0 * se


def test_pareto_tail_calibration():
    """make_pareto_tail pins (1 - cdf(u)) * Gamma(1-gamma) * u^gamma -> 1."""
    for gamma in [0.3, 0.5, 0.7]:
        law = make_pareto_tail(gamma)
        u = 1e8
        const = (1.0 - float(law.cdf(u))) * math.gamma(1.0 - gamma) * u**gamma
        assert abs(const - 1.0) < 1e-5
    # gamma = 1/2 has scale exactly 1/pi
    assert_allclose(make_pareto_tail(0.5).scale, 1.0 / math.pi, rtol=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Exponential(rate=0.0)
    with pytest.raises(ValueError):
        Gamma(shape=-1.0, rate=1.0)
    with pytest.raises(ValueError):
        ParetoTail(gamma=1.0, scale=1.0)
    with pytest.raises(ValueError):
        ParetoTail(gamma=0.5, scale=0.0)
    with pytest.raises(ValueError):
        make_pareto_tail(1.2)
