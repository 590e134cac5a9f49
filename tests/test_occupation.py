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
    """Even d switches to the k = 0 value below k r = 1e-6; odd d sums a
    series there instead, with no switch."""
    for dim in (2, 3):
        phi = TestFunction(shape="bump", center=np.zeros(dim), radius=1.0)
        below, above = phi.fourier_profile([9e-7, 1.1e-6])
        assert abs(below - above) < 1e-9


def test_evaluate_shapes():
    phi = TestFunction(shape="bump", center=[1.0], radius=2.0)
    vals = phi.evaluate(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert_allclose(vals, [1.0, (1 - 0.25) ** 2, 0.0, 0.0])
    ind = TestFunction(shape="indicator", center=[0.0, 0.0], radius=1.0)
    vals = ind.evaluate(np.array([[0.0, 0.0], [1.0, 0.0], [0.8, 0.7]]))
    assert_allclose(vals, [1.0, 1.0, 0.0])


def _evaluate_everywhere(phi, pts):
    """The shapes computed on every row, before the support-box cut."""
    q = np.sum((pts - phi.center) ** 2, axis=-1) / phi.radius**2
    if phi.shape == "bump":
        return np.where(q < 1.0, (1.0 - q) ** 2, 0.0)
    return (q <= 1.0).astype(float)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("shape", ["bump", "indicator"])
def test_evaluate_on_box_faces_and_sphere_matches_full_formula(dim, shape):
    rng = np.random.default_rng(3)
    center, r = np.array([0.5, -0.25, 0.75])[:dim], 1.25  # faces land exactly
    phi = TestFunction(shape=shape, center=center, radius=r)
    unit = rng.normal(size=(500, dim))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    face = rng.uniform(-r, r, size=(500, dim))  # one coordinate on a face
    face[np.arange(500), rng.integers(dim, size=500)] = rng.choice([-r, r], size=500)
    edge = np.full((4, dim), r)  # box corners and the axis points of the sphere
    edge[1] *= -1
    edge[2:, 1:] = 0.0
    edge[3, 0] = np.nextafter(r, 2 * r)
    pts = center + np.concatenate([
        unit * r, unit * np.nextafter(r, 0.0), unit * np.nextafter(r, 2 * r),
        face, np.nextafter(face, 0.0), np.nextafter(face, 2 * face), edge,
        rng.uniform(-2 * r, 2 * r, size=(2000, dim))])
    got = phi.evaluate(pts)
    assert np.array_equal(got, _evaluate_everywhere(phi, pts))
    assert 0 < np.count_nonzero(got) < len(pts)
    weights = np.bincount(np.arange(len(pts)) % 7, weights=got)
    assert np.array_equal(weights, np.bincount(np.arange(len(pts)) % 7,
                                               weights=_evaluate_everywhere(phi, pts)))


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
