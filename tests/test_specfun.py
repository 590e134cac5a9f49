"""The numpy special functions against scipy.special as the oracle."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from stablebranch import TestFunction, lebesgue_integral
from stablebranch.specfun import gammainc, scaled_bessel_j, sphere_area
from stablebranch.stable_motion import _angular_factor

# Every half-integer order that d <= 7 reaches: nu = d/2 (indicator),
# d/2 + 2 (bump) and d/2 - 1 (angular factor, d >= 5).
HALF_ORDERS = (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)


def _bessel_points(nu):
    """z from 0 to 1e3: dense up to 20, geometric beyond, and the three
    doubles around the series / recurrence switch at z = nu + 1/2."""
    switch = nu + 0.5
    return np.concatenate([
        [0.0, 1e-300, 1e-12, 1e-6, 1e-3],
        np.linspace(0.0, 20.0, 40001)[1:],
        np.geomspace(20.0, 1e3, 4001),
        [np.nextafter(switch, 0.0), switch, np.nextafter(switch, 2.0 * switch)],
    ])


@pytest.mark.parametrize("nu", HALF_ORDERS)
def test_half_integer_bessel_matches_scipy(nu):
    """J_nu = z^nu scaled_bessel_j to 1e-12 relative or 1e-15 absolute."""
    z = _bessel_points(nu)[1:]
    got = scaled_bessel_j(nu, z) * z**nu
    ref = special.jv(nu, z)
    err = np.abs(got - ref)
    assert np.all(err <= np.maximum(1e-12 * np.abs(ref), 1e-15)), (
        z[np.argmax(err / np.maximum(1e-12 * np.abs(ref), 1e-15))])


@pytest.mark.parametrize("nu", HALF_ORDERS)
def test_half_integer_bessel_relative_near_zero(nu):
    """Below its first zero J_nu / z^nu is positive and matches scipy to
    1e-12 relative, also where J_nu itself is far below 1e-15; at z = 0
    and 1e-300, where z^nu underflows, it is 1 / (2^nu Gamma(nu + 1))."""
    z = _bessel_points(nu)
    z = z[(z >= 1e-12) & (z <= nu + 1.5)]
    assert_allclose(scaled_bessel_j(nu, z), special.jv(nu, z) / z**nu,
                    rtol=1e-12, atol=0.0)
    at_zero = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
    assert_allclose(scaled_bessel_j(nu, [0.0, 1e-300]), at_zero, rtol=5e-16)


@pytest.mark.parametrize("nu", [0.0, 1.0, 3.0])
def test_integer_bessel_order_is_scipy_scaled(nu):
    z = np.array([0.0, 1e-7, 0.5, 3.0, 40.0])
    zs = np.where(z > 0.0, z, 1.0)
    ref = np.where(z > 0.0, special.jv(nu, zs) / zs**nu,
                   1.0 / (2.0**nu * math.gamma(nu + 1.0)))
    assert_allclose(scaled_bessel_j(nu, z), ref, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 3, 5, 7])
@pytest.mark.parametrize("shape", ["bump", "indicator"])
def test_odd_dimension_fourier_profile_matches_scipy(dim, shape):
    """The old route: scipy's J_nu away from k = 0 and the Lebesgue
    integral at k = 0."""
    phi = TestFunction(shape=shape, center=np.zeros(dim), radius=1.3)
    k = np.array([0.0, 1e-5, 0.01, 0.7, 2.0, 9.0, 150.0])
    nu = dim / 2.0 + (2.0 if shape == "bump" else 0.0)
    z = np.where(k > 0.0, k * 1.3, 1.0)
    scale = (8.0 if shape == "bump" else 1.0) * (2.0 * math.pi) ** (dim / 2.0) * 1.3**dim
    ref = np.where(k > 0.0, scale * special.jv(nu, z) / z**nu, lebesgue_integral(phi))
    assert_allclose(phi.fourier_profile(k), ref, rtol=1e-12, atol=1e-15 * ref[0])


@pytest.mark.parametrize("dim", [5, 7])
def test_odd_dimension_angular_factor_matches_scipy(dim):
    z = np.array([0.0, 1e-6, 0.3, 2.0, 7.0, 60.0])
    nu = dim / 2.0 - 1.0
    zs = np.where(z > 0.0, z, 1.0)
    ref = np.where(z > 0.0, special.gamma(dim / 2.0) * (2.0 / zs) ** nu
                   * special.jv(nu, zs), 1.0)
    assert_allclose(_angular_factor(dim, z), ref, rtol=1e-12, atol=1e-15)


def test_sphere_area_closed_forms():
    assert sphere_area(1) == 2.0
    assert_allclose([sphere_area(2), sphere_area(3), sphere_area(4)],
                    [2.0 * math.pi, 4.0 * math.pi, 2.0 * math.pi**2], rtol=1e-15)


@pytest.mark.parametrize("a", [0.3, 1.0, 2.0, 7.5, 50.0])
def test_incomplete_gamma_matches_scipy(a):
    """P to 1e-12 relative, from x = 0 to 1e3 and on both sides of
    the series / continued-fraction switch at x = a + 1.  Values below
    1e-300 are underflow on both sides and are compared absolutely."""
    switch = a + 1.0
    x = np.concatenate([
        [0.0, 1e-8, np.nextafter(switch, 0.0), switch, np.nextafter(switch, 2e3)],
        np.linspace(0.0, 3.0 * switch, 3001),
        np.geomspace(1e-3, 1e3, 3001),
    ])
    assert_allclose(gammainc(a, x), special.gammainc(a, x), rtol=1e-12, atol=1e-300)
    assert gammainc(a, 0.0) == 0.0


def test_incomplete_gamma_at_infinity_and_nan():
    x = np.array([np.inf, np.nan])
    assert_allclose(gammainc(2.0, x), [1.0, np.nan])


def test_math_gamma_matches_scipy_where_used():
    """Gamma at d/2, d/2 + 1 and (d + 1)/2 for d = 1, 2, 3 (sphere areas,
    ball volumes, the Cauchy kernel) and at 1 - gamma for the Pareto laws
    in use, gamma in {0.5, 0.7, 0.9}: within one ulp of scipy."""
    args = {d / 2.0 for d in (1, 2, 3)} | {d / 2.0 + 1.0 for d in (1, 2, 3)}
    args |= {(d + 1) / 2.0 for d in (1, 2, 3)} | {1.0 - g for g in (0.5, 0.7, 0.9)}
    for v in sorted(args):
        assert abs(math.gamma(v) - special.gamma(v)) <= math.ulp(math.gamma(v)), v
    # so Gamma(1/2), and the gamma = 1/2 Pareto scale, is bit for bit
    assert math.gamma(0.5) == special.gamma(0.5)
