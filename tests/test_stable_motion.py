"""Sampler, density, and semigroup checks for the stable migration kernel.

Statistical tests use fixed seeds; targets are closed forms (Gaussian and
Cauchy cases), the characteristic function, or the self-similarity scaling
that pins down the general-alpha sampler and quadrature.
"""

import math
import re

import numpy as np
import pytest
from conftest import traced_peak
from numpy.testing import assert_allclose
from scipy import special

from stablebranch import (
    Exponential,
    QuadratureError,
    StableKernel,
    TestFunction,
    lebesgue_integral,
    radial_fourier_inverse,
    replicate_stream,
    sample_increments,
    semigroup_apply,
    transition_density_radial,
    tree_batch,
)
from stablebranch.stable_motion import (
    _gl_rule,
    _one_sided_stable,
    _sin_double,
    semigroup_columns,
    support_quadrature,
)


def test_kernel_validation():
    with pytest.raises(ValueError):
        StableKernel(alpha=2.5, dim=1)
    with pytest.raises(ValueError):
        StableKernel(alpha=0.0, dim=1)
    with pytest.raises(ValueError):
        StableKernel(alpha=1.5, dim=0)


def test_gaussian_increments_have_variance_2t():
    """alpha = 2 increments are N(0, 2t) per coordinate."""
    kernel = StableKernel(alpha=2.0, dim=2)
    rng = replicate_stream(99, 0)
    t = 0.7
    x = sample_increments(kernel, np.full(100_000, t), rng)
    assert x.shape == (100_000, 2)
    for c in range(2):
        v = x[:, c].var(ddof=1)
        # variance of the sample variance of a Gaussian: 2 sigma^4 / n
        se = math.sqrt(2.0 / 100_000) * 2.0 * t
        assert abs(v - 2.0 * t) < 4.0 * se
    assert abs(x.mean()) < 4.0 * math.sqrt(2 * t / 200_000)


def test_cauchy_increment_quartiles():
    """alpha = 1 is isotropic Cauchy: |X_t| has median t in d = 1."""
    kernel = StableKernel(alpha=1.0, dim=1)
    rng = replicate_stream(7, 0)
    t = 2.0
    x = sample_increments(kernel, np.full(80_000, t), rng)[:, 0]
    frac = np.mean(np.abs(x) <= t)
    se = math.sqrt(0.25 / 80_000)
    assert abs(frac - 0.5) < 4.0 * se


@pytest.mark.parametrize("alpha,dim", [(2.0, 1), (1.0, 1), (1.5, 2), (0.8, 1)])
def test_empirical_characteristic_function(alpha, dim):
    """E cos(y . X_t) = exp(-t |y|^alpha) at several frequencies."""
    kernel = StableKernel(alpha=alpha, dim=dim)
    rng = replicate_stream(11, 3)
    t = 0.9
    x = sample_increments(kernel, np.full(120_000, t), rng)
    for k in [0.3, 0.7, 1.1, 1.6, 2.4]:
        y = np.zeros(dim)
        y[0] = k
        vals = np.cos(x @ y)
        target = math.exp(-t * k**alpha)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3.5 * se, (alpha, dim, k)


def _out_of_place_increments(kernel, dts, rng):
    """The sampler written out plainly, without its in-place steps."""
    n, d = len(dts), kernel.dim
    if kernel.alpha == 2.0:
        z = rng.standard_normal(size=(n, d))
        return z * np.sqrt(2.0 * dts)[:, None]
    rho = kernel.alpha / 2.0
    h = (1.0 - rng.random(size=n)) * (np.pi / 2.0)
    w = np.clip(rng.standard_exponential(size=n), 1e-300, None)

    def sin_double(x):
        t = np.tan(x)
        return 2.0 * t / (t * t + 1.0)

    ratio = (1.0 - rho) / rho
    a = sin_double(rho * h) * np.power(sin_double((1.0 - rho) * h) / w, ratio)
    a /= np.power(sin_double(h), 1.0 / rho)
    s = np.power(dts, 1.0 / rho) * a
    z = rng.standard_normal(size=(n, d))
    return z * np.sqrt(2.0 * s)[:, None]


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 3])
def test_in_place_sampler_is_bit_identical(alpha, dim):
    """Also at one row, at the sampler's block of 2^14 rows, one past it,
    and three blocks and a part, so every block edge meets the plain
    whole-array reference."""
    kernel = StableKernel(alpha=alpha, dim=dim)
    for n in (20_001, 1, 2**14, 2**14 + 1, 3 * 2**14 + 5):
        dts = replicate_stream(5, 0).exponential(size=n)
        dts[:3] = [0.0, 1e-300, 1e6][:n]
        got = sample_increments(kernel, dts, replicate_stream(5, 1))
        want = _out_of_place_increments(kernel, dts, replicate_stream(5, 1))
        assert np.array_equal(got, want), n
        assert np.array_equal(dts[:3], [0.0, 1e-300, 1e6][:n])  # input left alone


def test_half_angle_sine_matches_np_sin():
    h = np.concatenate([np.linspace(0.0, np.pi / 2.0, 200_001)[1:],
                        (np.pi / 2.0) * 2.0 ** -np.arange(1.0, 54.0)])
    for scale in (1.0, 0.75, 0.25):
        x = np.multiply(h, scale)
        got = _sin_double(h, scale)
        assert np.max(np.abs(got / np.sin(2.0 * x) - 1.0)) <= 1e-15, scale


class _EdgeRng:
    """Stub stream: h at both ends of (0, pi/2], then unit exponentials."""

    def random(self, size):
        return np.array([0.0, 1.0 - 2.0**-53])

    def standard_exponential(self, size):
        return np.ones(size)


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.75, 0.95])
def test_one_sided_stable_is_finite_and_positive_at_the_angle_ends(rho):
    s = _one_sided_stable(rho, 1.0, _EdgeRng(), 2)
    assert np.all(np.isfinite(s)) and np.all(s > 0.0), s


@pytest.mark.parametrize("alpha", [2.0, 1.5])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_increments_reject_non_finite_or_negative_steps(alpha, bad):
    """A NaN step used to give a nan increment and an infinite one inf,
    without raising."""
    kernel = StableKernel(alpha=alpha, dim=2)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sample_increments(kernel, [bad, 1.0], replicate_stream(0, 1))


@pytest.mark.parametrize("dts", [1.0, np.ones((1, 2)), np.ones((2, 1))],
                         ids=["scalar", "1x2", "2x1"])
def test_increments_refuse_steps_that_are_not_one_dimensional(dts):
    """A scalar used to die in len() with a TypeError, and a (1, 2) array
    with numpy's broadcast message."""
    kernel = StableKernel(alpha=1.5, dim=2)
    shape = np.shape(dts)
    with pytest.raises(ValueError, match=f"1-D.*shape {re.escape(str(shape))}"):
        sample_increments(kernel, dts, replicate_stream(0, 1))


def test_zero_time_increment_is_zero():
    kernel = StableKernel(alpha=1.5, dim=2)
    rng = replicate_stream(0, 1)
    x = sample_increments(kernel, np.zeros(16), rng)
    assert_allclose(x, 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_heat_kernel_closed_form(dim):
    kernel = StableKernel(alpha=2.0, dim=dim)
    r = np.array([0.0, 0.4, 1.3])
    t = 0.8
    expected = (4 * math.pi * t) ** (-dim / 2) * np.exp(-(r**2) / (4 * t))
    assert_allclose(transition_density_radial(kernel, t, r), expected, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cauchy_kernel_closed_form(dim):
    kernel = StableKernel(alpha=1.0, dim=dim)
    r = np.array([0.0, 0.4, 1.3])
    t = 0.8
    c = math.gamma((dim + 1) / 2) / math.pi ** ((dim + 1) / 2)
    expected = c * t / (t**2 + r**2) ** ((dim + 1) / 2)
    assert_allclose(transition_density_radial(kernel, t, r), expected, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fourier_inversion_recovers_closed_forms(dim):
    """Quadrature route reproduces the Gaussian and Cauchy densities."""
    r = np.array([0.0, 0.3, 0.9, 2.0])
    t = 1.0
    gauss = radial_fourier_inverse(lambda k: np.exp(-t * k**2), dim, r, 8.0)
    expected = (4 * math.pi * t) ** (-dim / 2) * np.exp(-(r**2) / (4 * t))
    assert np.max(np.abs(gauss - expected)) < 1e-6

    cauchy = radial_fourier_inverse(lambda k: np.exp(-t * k), dim, r, 40.0)
    c = math.gamma((dim + 1) / 2) / math.pi ** ((dim + 1) / 2)
    expected = c * t / (t**2 + r**2) ** ((dim + 1) / 2)
    assert np.max(np.abs(cauchy - expected)) < 1e-6


@pytest.mark.parametrize("dim", [4, 5])
def test_fourier_inversion_bessel_branch_recovers_heat_kernel(dim):
    """From d = 4 on the angular factor is a general-order Bessel function."""
    r = np.array([0.0, 1e-7, 0.3, 0.9, 2.0, 4.0])
    got = radial_fourier_inverse(lambda k: np.exp(-k**2), dim, r, 8.0)
    expected = (4 * math.pi) ** (-dim / 2) * np.exp(-(r**2) / 4)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_oversized_node_set_is_refused_before_allocating():
    """alpha = 0.5, t = 1e-3 on r <= 1 cuts near k = 9.5e8: about 3.0e8
    panels, 4.9e9 nodes or 39 GB per float64 array, refused at once."""
    kernel = StableKernel(alpha=0.5, dim=1)
    with traced_peak() as traced, pytest.raises(QuadratureError,
                                                match="over the 2000000 limit"):
        transition_density_radial(kernel, 1e-3, np.linspace(0.0, 1.0, 101))
    assert traced.peak < 1 << 20


def test_self_similarity_of_general_alpha_density():
    """p_t(r) = t^{-d/alpha} p_1(t^{-1/alpha} r) ties two quadratures together."""
    kernel = StableKernel(alpha=1.5, dim=1)
    t, r = 0.6, 1.1
    a = transition_density_radial(kernel, t, [r])[0]
    s = t ** (-1.0 / 1.5)
    b = s * transition_density_radial(kernel, 1.0, [s * r])[0]
    assert abs(a - b) / b < 1e-6


def test_density_positive_and_unimodal():
    kernel = StableKernel(alpha=1.5, dim=1)
    r = np.linspace(0.0, 6.0, 41)
    p = transition_density_radial(kernel, 0.9, r)
    assert np.all(p > 0)
    assert np.all(np.diff(p) < 0)


def test_repeated_radii_batch_maps_back_to_direct_values():
    """A large batch of repeated radii is inverted once per distinct
    radius; every entry must get its own radius's value back."""
    kernel = StableKernel(alpha=1.5, dim=2)
    small = np.linspace(0.0, 5.0, 64)
    direct = transition_density_radial(kernel, 0.7, small)
    big = np.tile(small, 200)  # 12,800 entries, 64 distinct radii
    batched = transition_density_radial(kernel, 0.7, big).reshape(200, 64)
    assert np.max(np.abs(batched - direct)) < 1e-9


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_columns_match_one_time_at_a_time(alpha, dim):
    """An array of times gives one column per time.  Closed forms are the
    same arithmetic; at alpha = 1.5 every column shares the node set of
    the smallest time, and the panels graded toward k = 0 resolve the
    k^alpha kink there for the largest time too."""
    kernel = StableKernel(alpha=alpha, dim=dim)
    times = np.array([0.05, 0.4, 1.0, 3.0])
    r = np.linspace(0.0, 6.0, 37)
    cols = transition_density_radial(kernel, times, r)
    assert cols.shape == (len(r), len(times))
    for j, t in enumerate(times):
        one = transition_density_radial(kernel, t, r)
        atol = 1e-12 * one.max() if alpha == 1.5 else 0.0
        assert_allclose(cols[:, j], one, rtol=1e-14, atol=atol)


GL_SIZES = [1, 2, 3, 16, 64, 128]


@pytest.mark.parametrize("n", GL_SIZES)
def test_gl_rule_integrates_monomials_exactly(n):
    """x^k for every k <= 2n - 1: 2/(k + 1) for even k, 0 for odd."""
    x, w = _gl_rule(n)
    k = np.arange(2 * n)
    exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
    assert_allclose((x[None, :] ** k[:, None]) @ w, exact, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", GL_SIZES)
def test_gl_rule_is_symmetric_and_sums_to_two(n):
    x, w = _gl_rule(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 1e-14


@pytest.mark.parametrize("n", GL_SIZES)
def test_gl_rule_matches_numpy_leggauss(n):
    """numpy's companion-matrix rule as the oracle; its own weights are off
    by 1.4e-11 relative at n = 128, so the weight tolerance is 1e-10."""
    x, w = _gl_rule(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert_allclose(x, x_ref, rtol=0.0, atol=1e-15)
    assert_allclose(w, w_ref, rtol=1e-10, atol=0.0)


def _sqrt_substituted_density_1d(alpha, t, r, panels=4000):
    """p_t(r) in d = 1 as (1/pi) Int 2 v exp(-t v^(2 alpha)) cos(v^2 r) dv,
    k = v^2: smooth in v at v = 0, so uniform Gauss-Legendre panels on
    [0, V] with exp(-t V^(2 alpha)) = 1e-18 reach rounding level."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, (math.log(1e18) / t) ** (0.5 / alpha), panels + 1)
    half, mid = np.diff(edges) / 2.0, (edges[1:] + edges[:-1]) / 2.0
    v = (mid[:, None] + half[:, None] * x).ravel()
    wv = (half[:, None] * w).ravel()
    f = 2.0 * v * np.exp(-t * v ** (2 * alpha))
    return np.cos(np.outer(r, v * v)) @ (wv * f) / math.pi


def test_graded_panels_resolve_the_kink_at_k_zero():
    """alpha = 1.5, d = 1, t = 3 on r <= 6: with uniform panels from k = 0
    the exp(-t k^alpha) kink left 1.2e-8 of the peak alone and 9.3e-8
    beside t = 0.05, over the 1e-8 inversion tolerance."""
    kernel = StableKernel(alpha=1.5, dim=1)
    r = np.linspace(0.0, 6.0, 61)
    ref = _sqrt_substituted_density_1d(1.5, 3.0, r)
    alone = transition_density_radial(kernel, 3.0, r)
    shared = transition_density_radial(kernel, np.array([0.05, 3.0]), r)[:, 1]
    assert np.max(np.abs(alone - ref)) < 1e-12 * ref.max()
    assert np.max(np.abs(shared - ref)) < 1e-12 * ref.max()


def test_tail_guard_checks_every_column():
    """One column cut too early raises, even beside a well-cut one."""
    r = [0.0, 0.5]
    both = radial_fourier_inverse(
        lambda k: np.stack([np.exp(-k**2)] * 2, axis=1), 1, r, 8.0)
    assert both.shape == (2, 2)
    with pytest.raises(QuadratureError):
        radial_fourier_inverse(
            lambda k: np.stack([np.exp(-k**2), np.exp(-0.01 * k**2)], axis=1),
            1, r, 8.0)


def test_tail_guard_rejects_premature_truncation():
    with pytest.raises(QuadratureError):
        radial_fourier_inverse(lambda k: np.exp(-0.01 * k**2), 1, [0.0], 3.0)


def test_transition_density_rejects_nonpositive_time():
    kernel = StableKernel(alpha=2.0, dim=2)
    with pytest.raises(ValueError):
        transition_density_radial(kernel, 0.0, [0.1])


@pytest.mark.parametrize("alpha", [2.0, 1.0, 1.5])
def test_transition_density_rejects_non_finite_time(alpha):
    """t = nan used to give nan at alpha = 2; nan and inf are refused."""
    kernel = StableKernel(alpha=alpha, dim=2)
    for bad in (math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError, match="finite"):
            transition_density_radial(kernel, bad, [0.1])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_support_quadrature_integrates_bump_exactly(dim):
    phi = TestFunction(shape="bump", center=np.zeros(dim), radius=1.3)
    pts, w = support_quadrature(np.zeros(dim), 1.3, dim,
                                {1: 257, 2: 65, 3: 33}[dim])
    val = float(w @ phi.evaluate(pts))
    assert_allclose(val, lebesgue_integral(phi), rtol=5e-5)


def test_semigroup_identity_at_time_zero():
    kernel = StableKernel(alpha=1.5, dim=1)
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    x = np.array([[0.2], [0.8], [3.0]])
    assert_allclose(semigroup_apply(kernel, phi, 0.0, x), phi.evaluate(x))


def test_semigroup_matches_direct_convolution():
    """d = 1 Gaussian case against a dense trapezoid convolution."""
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    t = 0.6
    xs = np.array([[0.0], [0.7], [1.9]])
    got = semigroup_apply(kernel, phi, t, xs)
    grid = np.linspace(-1.0, 1.0, 4001)
    fv = phi.evaluate(grid[:, None])
    for x, g in zip(xs[:, 0], got):
        dens = (4 * math.pi * t) ** -0.5 * np.exp(-((x - grid) ** 2) / (4 * t))
        ref = np.trapezoid(fv * dens, grid)
        assert abs(g - ref) < 1e-7


def test_semigroup_resolves_small_times():
    """t**(1/alpha) well below the width of the bump still resolves."""
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    t = 2e-3
    xs = np.array([[0.0], [0.5], [0.98], [1.05]])
    got = semigroup_apply(kernel, phi, t, xs)
    grid = np.linspace(-1.0, 1.0, 40001)
    fv = phi.evaluate(grid[:, None])
    for x, g in zip(xs[:, 0], got):
        dens = (4 * math.pi * t) ** -0.5 * np.exp(-((x - grid) ** 2) / (4 * t))
        assert abs(g - np.trapezoid(fv * dens, grid)) < 1e-7


def test_semigroup_of_wide_indicator_matches_erf():
    """The panels resolve phi-hat's own oscillation (radius 20), not only
    the evaluation radii near the center."""
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = TestFunction(shape="indicator", center=np.zeros(1), radius=20.0)
    t, xs = 1e-3, np.array([0.0, 0.1])
    got = semigroup_apply(kernel, phi, t, xs[:, None])
    width = math.sqrt(4 * t)
    exact = 0.5 * (special.erf((20.0 - xs) / width) + special.erf((20.0 + xs) / width))
    assert_allclose(got, exact, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset,t", [(50.0, 1.0), (3.0, 1e-3)])
def test_semigroup_far_field_is_zero_without_tail_error(dim, offset, t):
    """Where S_t phi vanishes the tail guard measures against sup phi = 1."""
    kernel = StableKernel(alpha=2.0, dim=dim)
    phi = TestFunction(shape="indicator", center=np.zeros(dim), radius=1.0)
    x = np.zeros(dim)
    x[0] = offset
    assert abs(semigroup_apply(kernel, phi, t, x)) < 1e-12


def test_semigroup_columns_match_single_applications():
    """Columns sharing a centre reuse one inversion, other centres get
    their own; t = 0 is phi itself."""
    kernel = StableKernel(alpha=1.5, dim=2)
    phi = TestFunction(shape="bump", center=np.array([0.3, -0.1]), radius=1.0)
    psi = TestFunction(shape="indicator", center=np.array([0.3, -0.1]), radius=0.7)
    xs = np.array([[0.0, 0.0], [0.9, 0.4], [2.5, -1.0]])
    columns = [(phi, 0.0), (phi, 0.05), (psi, 1.2), (phi, 2.0)]
    got = semigroup_columns(kernel, columns, xs)
    for j, (f, t) in enumerate(columns):
        assert_allclose(got[:, j], semigroup_apply(kernel, f, t, xs),
                        rtol=0.0, atol=1e-9)  # sup f = 1
    other = TestFunction(shape="bump", center=np.zeros(2), radius=1.0)
    mixed = semigroup_columns(kernel, [(phi, 1.0), (other, 1.0)], xs)
    assert_allclose(mixed[:, 1], semigroup_apply(kernel, other, 1.0, xs),
                    rtol=0.0, atol=1e-15)


def test_semigroup_rejects_dimension_mismatch():
    phi = TestFunction(shape="bump", center=np.zeros(2), radius=1.0)
    with pytest.raises(ValueError):
        semigroup_apply(StableKernel(alpha=1.5, dim=1), phi, 0.5, np.zeros(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_semigroup_rejects_non_finite_or_negative_time(bad):
    """t = nan used to fail converting NaN to an integer, and t = inf with
    a ZeroDivisionError; both are refused with a message naming t."""
    kernel = StableKernel(alpha=1.5, dim=1)
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    with pytest.raises(ValueError, match=f"finite and nonnegative, got {bad}"):
        semigroup_apply(kernel, phi, bad, np.zeros(1))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        semigroup_columns(kernel, [(phi, 1.0), (phi, bad)], np.zeros((2, 1)))


_BUMP_1D = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)


@pytest.mark.parametrize("call", [
    lambda: radial_fourier_inverse(lambda k: np.exp(-k**2), 1, [math.nan], 30.0),
    lambda: radial_fourier_inverse(lambda k: np.exp(-k**2), 1, [1.0, math.inf], 30.0),
    lambda: transition_density_radial(StableKernel(2.0, 1), 1.0, [math.nan]),
    lambda: transition_density_radial(StableKernel(1.5, 1), 1.0, [math.nan]),
    lambda: transition_density_radial(StableKernel(1.0, 1), 1.0, [math.nan]),
    lambda: transition_density_radial(StableKernel(2.0, 2), [1.0, 2.0], [0.5, math.inf]),
    lambda: semigroup_apply(StableKernel(1.5, 1), _BUMP_1D, 0.0, [math.nan]),
    lambda: semigroup_apply(StableKernel(1.5, 1), _BUMP_1D, 0.5, [math.nan]),
    lambda: semigroup_apply(StableKernel(1.5, 1), _BUMP_1D, 0.5, [math.inf]),
    lambda: semigroup_columns(StableKernel(2.0, 1), [(_BUMP_1D, 0.0)],
                              np.array([[0.0], [math.nan]])),
    lambda: tree_batch(StableKernel(2.0, 1), Exponential(1.0), [[math.nan]],
                       obs_times=[0.0, 1.0], seed=0),
    lambda: tree_batch(StableKernel(2.0, 1), Exponential(1.0), [[0.0], [-math.inf]],
                       obs_times=[0.0, 1.0], seed=0),
], ids=["inverse-nan", "inverse-inf", "density-a2", "density-a1.5", "density-a1",
        "density-columns-inf", "semigroup-t0", "semigroup-nan", "semigroup-inf",
        "columns-t0", "tree-nan", "tree-inf"])
def test_non_finite_positions_are_refused(call):
    """A NaN radius, point or start used to give nan, 0 or a batch (the
    radius check was radii < 0, which NaN passes), and an infinite one a
    ZeroDivisionError in the inversion."""
    with pytest.raises(ValueError, match="finite"):
        call()


def test_semigroup_against_monte_carlo():
    """General alpha in d = 2: E phi(x + X_t) by simulation."""
    kernel = StableKernel(alpha=1.5, dim=2)
    phi = TestFunction(shape="bump", center=np.zeros(2), radius=1.0)
    x0 = np.array([0.4, -0.2])
    t = 0.8
    rng = replicate_stream(21, 5)
    inc = sample_increments(kernel, np.full(150_000, t), rng)
    vals = phi.evaluate(x0 + inc)
    target = semigroup_apply(kernel, phi, t, x0)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3.5 * se


def test_replicate_streams_are_reproducible_and_distinct():
    a1 = replicate_stream(5, 3).random(4)
    a2 = replicate_stream(5, 3).random(4)
    b = replicate_stream(5, 4).random(4)
    c = replicate_stream(6, 3).random(4)
    assert_allclose(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)
