"""Test functions and their Fourier profiles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stablebranch import (
    TestFunction,
    lebesgue_integral,
)
from stablebranch.stable_motion import support_quadrature


def test_lebesgue_integral_closed_forms():
    # d = 1 bump, radius 1: int (1-x^2)^2 = 16/15
    phi = TestFunction(shape="bump", center=[0.0], radius=1.0)
    assert_allclose(lebesgue_integral(phi), 16.0 / 15.0, rtol=1e-14)
    # indicator = ball volume
    ind2 = TestFunction(shape="indicator", center=[0.0, 0.0], radius=2.0)
    assert_allclose(lebesgue_integral(ind2), math.pi * 4.0, rtol=1e-14)
    ind3 = TestFunction(shape="indicator", center=[0.0] * 3, radius=1.5)
    assert_allclose(lebesgue_integral(ind3), 4.0 / 3.0 * math.pi * 1.5**3,
                    rtol=1e-14)
    # d = 3 bump, radius 1: surface(S^2) * 8 / (3*5*7) = 32 pi / 105
    bump3 = TestFunction(shape="bump", center=[0.0] * 3, radius=1.0)
    assert_allclose(lebesgue_integral(bump3), 32.0 * math.pi / 105.0, rtol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("shape", ["bump", "indicator"])
def test_lebesgue_integral_matches_quadrature(dim, shape):
    phi = TestFunction(shape=shape, center=np.zeros(dim), radius=1.2)
    pts, w = support_quadrature(np.zeros(dim), 1.2, dim,
                                {1: 2001, 2: 201, 3: 61}[dim])
    val = float(w @ phi.evaluate(pts))
    tol = 5e-5 if shape == "bump" else 2e-2  # indicator has a jump
    assert abs(val - lebesgue_integral(phi)) / lebesgue_integral(phi) < tol


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("shape", ["bump", "indicator"])
def test_fourier_profile_matches_direct_transform(dim, shape):
    """fhat(k) = int phi(x) cos(k e1 . x) dx for the centered shape."""
    phi = TestFunction(shape=shape, center=np.zeros(dim), radius=1.1)
    pts, w = support_quadrature(np.zeros(dim), 1.1, dim,
                                {1: 2001, 2: 301, 3: 81}[dim])
    fv = phi.evaluate(pts)
    for k in [0.0, 0.6, 1.7, 3.0]:
        direct = float(w @ (fv * np.cos(k * pts[:, 0])))
        tol = 2e-4 if shape == "bump" else 2e-2
        assert abs(phi.fourier_profile(k)[0] - direct) < tol * max(
            1.0, lebesgue_integral(phi))


def test_fourier_profile_at_zero_is_mass():
    for shape in ["bump", "indicator"]:
        phi = TestFunction(shape=shape, center=np.zeros(2), radius=0.9)
        assert_allclose(phi.fourier_profile(0.0)[0], lebesgue_integral(phi),
                        rtol=1e-9)


def test_fourier_profile_continuous_at_small_k_switch():
    phi = TestFunction(shape="bump", center=np.zeros(3), radius=1.0)
    below, above = phi.fourier_profile([9e-7, 1.1e-6])
    assert abs(below - above) < 1e-9


def test_evaluate_shapes():
    phi = TestFunction(shape="bump", center=[1.0], radius=2.0)
    vals = phi.evaluate(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert_allclose(vals, [1.0, (1 - 0.25) ** 2, 0.0, 0.0])
    ind = TestFunction(shape="indicator", center=[0.0, 0.0], radius=1.0)
    vals = ind.evaluate(np.array([[0.0, 0.0], [1.0, 0.0], [0.8, 0.7]]))
    assert_allclose(vals, [1.0, 1.0, 0.0])


def test_evaluate_rejects_dimension_mismatch():
    phi = TestFunction(shape="bump", center=[0.0, 0.0], radius=1.0)
    with pytest.raises(ValueError):
        phi.evaluate(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        phi.evaluate(np.zeros((3, 3)))


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction(shape="square", center=[0.0], radius=1.0)
    with pytest.raises(ValueError):
        TestFunction(shape="bump", center=[0.0], radius=0.0)


def test_ball_contains():
    # the indicator, the occupancy target, is of the closed ball
    ball = TestFunction(shape="indicator", center=[1.0, 0.0], radius=0.5)
    got = ball.evaluate(np.array([[1.0, 0.0], [1.5, 0.0], [1.4, 0.4]]))
    assert got.tolist() == [1.0, 1.0, 0.0]
    assert ball.dim == 2
    with pytest.raises(ValueError):
        TestFunction(shape="indicator", center=[0.0], radius=-1.0)
