"""Tests for the moment formulas of the branching field.

Strategy: closed-form overlap integrals pin the u = 0 pair correlation;
the Fourier and real-space routes cross-check each other at u > 0;
covariance matrices must be symmetric positive semidefinite and satisfy
Cauchy-Schwarz; the occupation-variance quadrature is checked against a
naive double-loop reimplementation, its closed-form lag weights against
one convolution per renewal interval, and the grouped lag sums of the G
tables against one sum per lag; tree moments are checked against
Monte Carlo; the decay-exponent table is asserted against hand-computed
values and its regime gates against both sides of every boundary.
"""

import gc
import math

import numpy as np
import pytest
from conftest import traced_peak

from stablebranch import (
    Exponential,
    QuadratureError,
    RegimeError,
    StableKernel,
    TestFunction,
    build_renewal,
    decay_exponent_prediction,
    field_covariance,
    lebesgue_integral,
    make_pareto_tail,
    occupation_variance,
    pair_correlation,
    semigroup_apply,
    tree_batch,
    tree_second_moment,
)
from stablebranch import moments, stable_motion
from stablebranch.experiments import default_renewal_table, run_tree_moment_comparison
from stablebranch.moments import pair_correlation_realspace

EXP1 = Exponential(rate=1.0)


def _center(dim, offset):
    c = np.zeros(dim)
    c[0] = offset
    return c


def bump(dim, center=0.0, radius=1.0):
    return TestFunction(shape="bump", center=_center(dim, center),
                        radius=radius)


def indicator(dim, center=0.0, radius=1.0):
    return TestFunction(shape="indicator", center=_center(dim, center),
                        radius=radius)


# ---------------------------------------------------------------------------
# pair correlation at zero lag: closed-form overlap integrals
# ---------------------------------------------------------------------------


def test_zero_lag_self_overlap_bump_1d():
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    # Int_{-1}^{1} (1 - x^2)^4 dx = 256/315
    val = pair_correlation(kernel, phi, phi, 0.0)
    assert val == pytest.approx(256.0 / 315.0, rel=1e-10)


@pytest.mark.parametrize("delta", [0.0, 0.6, 1.3])
def test_zero_lag_indicator_overlap_1d(delta):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi, psi = indicator(1), indicator(1, center=delta)
    val = pair_correlation(kernel, phi, psi, 0.0)
    assert val == pytest.approx(2.0 - delta, rel=1e-10)


def test_zero_lag_indicator_lens_2d():
    kernel = StableKernel(alpha=1.5, dim=2)
    delta = 0.8
    phi, psi = indicator(2), indicator(2, center=delta)
    exact = 2.0 * math.acos(delta / 2.0) - (delta / 2.0) * math.sqrt(
        4.0 - delta * delta)
    val = pair_correlation(kernel, phi, psi, 0.0)
    assert val == pytest.approx(exact, rel=1e-5)


def test_zero_lag_indicator_lens_3d():
    kernel = StableKernel(alpha=2.0, dim=3)
    delta = 0.5
    phi, psi = indicator(3), indicator(3, center=delta)
    exact = math.pi / 12.0 * (4.0 + delta) * (2.0 - delta) ** 2
    val = pair_correlation(kernel, phi, psi, 0.0)
    assert val == pytest.approx(exact, rel=1e-8)


def test_zero_lag_disjoint_supports_vanish():
    kernel = StableKernel(alpha=2.0, dim=1)
    assert pair_correlation(kernel, bump(1), bump(1, center=2.5), 0.0) == 0.0


# ---------------------------------------------------------------------------
# pair correlation at positive lag
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha,dim,u,nodes,rtol", [
    (2.0, 1, 0.5, None, 2e-4),
    (1.0, 1, 1.0, None, 2e-4),
    (1.5, 2, 0.8, None, 2e-4),
    # coarse Simpson grid at d = 3 keeps the check affordable; its own
    # quadrature error dominates the comparison there
    (2.0, 3, 1.0, 17, 2e-3),
])
def test_fourier_and_realspace_routes_agree(alpha, dim, u, nodes, rtol):
    kernel = StableKernel(alpha=alpha, dim=dim)
    phi = bump(dim)
    psi = bump(dim, center=0.7)
    a = pair_correlation(kernel, phi, psi, u)
    b = pair_correlation_realspace(kernel, phi, psi, u, nodes_per_dim=nodes)
    assert a == pytest.approx(b, rel=rtol), (a, b)


def test_pair_correlation_symmetric_in_test_functions():
    kernel = StableKernel(alpha=1.5, dim=1)
    phi = bump(1, radius=1.0)
    psi = indicator(1, center=0.5, radius=0.7)
    a = pair_correlation_realspace(kernel, phi, psi, 0.8)
    b = pair_correlation_realspace(kernel, psi, phi, 0.8)
    assert a == pytest.approx(b, rel=1e-6)


def test_pair_correlation_decreasing_in_lag():
    """With phi = psi centered together, spreading mass can only lower
    the correlation."""
    kernel = StableKernel(alpha=1.5, dim=1)
    phi = bump(1)
    vals = [pair_correlation(kernel, phi, phi, u)
            for u in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b > 0.0 for a, b in zip(vals[:-1], vals[1:])), vals


def test_pair_correlation_rejects_negative_lag():
    kernel = StableKernel(alpha=2.0, dim=1)
    with pytest.raises(ValueError):
        pair_correlation(kernel, bump(1), bump(1), -0.5)
    with pytest.raises(ValueError):
        pair_correlation_realspace(kernel, bump(1), bump(1), -0.5)


def test_torus_images_equal_sum_of_free_space_twins():
    """Wrapping on the torus is the same as summing the free-space pair
    correlation over the shifted periodic copies of psi."""
    kernel = StableKernel(alpha=2.0, dim=1)
    L = 2.0
    phi = bump(1)
    u = 1.5
    wrapped = pair_correlation(kernel, phi, phi, u, torus_half_side=L)
    free = sum(
        pair_correlation(kernel, phi, bump(1, center=2.0 * L * k), u)
        for k in range(-2, 3)
    )
    assert wrapped == pytest.approx(free, rel=1e-8)
    # images contribute: the wrapped value strictly exceeds the free one
    assert wrapped > pair_correlation(kernel, phi, phi, u)


def _wrapped_cauchy_pair_correlation(phi, psi, u, L):
    """G on the circle [-L, L) at alpha = 1 from the wrapped Cauchy kernel

        p_u(z) = (2L)^-1 sinh(pi u/L) / (cosh(pi u/L) - cos(pi z/L)),

    integrated against phi(x) psi(y) by Gauss-Legendre over both supports
    (the bump is a polynomial and the kernel analytic, so 400 nodes per
    axis reach rounding level)."""
    x, w = np.polynomial.legendre.leggauss(400)
    xs = phi.center[0] + phi.radius * x
    ys = psi.center[0] + psi.radius * x
    a = math.pi * u / L
    p = np.sinh(a) / (np.cosh(a) - np.cos(math.pi * (xs[:, None] - ys[None, :]) / L))
    fx = phi.radius * w * phi.evaluate(xs[:, None])
    fy = psi.radius * w * psi.evaluate(ys[:, None])
    return float(fx @ p @ fy) / (2.0 * L)


@pytest.mark.parametrize("u", [0.5, 5.0, 50.0])
def test_torus_series_matches_wrapped_cauchy_closed_form(u):
    """alpha = 1, d = 1: the lattice series is the exact torus G at every
    lag; a truncated image sum falls short at long lags."""
    kernel = StableKernel(alpha=1.0, dim=1)
    phi, psi = bump(1), indicator(1, center=0.8, radius=0.6)
    exact = _wrapped_cauchy_pair_correlation(phi, psi, u, 3.0)
    got = pair_correlation(kernel, phi, psi, u, torus_half_side=3.0)
    assert got == pytest.approx(exact, rel=1e-10)


def test_torus_images_equal_free_space_sum_off_centre_d2():
    """alpha = 2, d = 2, psi off phi's centre on both axes: the lattice
    series equals the free-space G summed over psi's periodic images
    (a Gaussian kernel, so 7 x 7 images reach 1e-10)."""
    kernel = StableKernel(alpha=2.0, dim=2)
    L = 2.0
    phi = TestFunction(shape="bump", center=np.array([0.3, -0.4]), radius=1.0)
    centre = np.array([-0.5, 0.6])
    psi = TestFunction(shape="bump", center=centre, radius=0.7)
    lags = np.array([0.2, 1.5])
    got = pair_correlation(kernel, phi, psi, lags, torus_half_side=L)
    free = sum(pair_correlation(kernel, phi, TestFunction(
        shape="bump", center=centre + 2.0 * L * (np.array(m) - 3), radius=0.7), lags)
        for m in np.ndindex(7, 7))
    np.testing.assert_allclose(got, free, rtol=1e-8)


def _torus_box_sum(kernel, phi, psi, u, L, n):
    """The dual-lattice series of G on [-L, L)^d summed over the whole box
    |n_i| <= n, one term per lattice point."""
    axes = np.meshgrid(*[np.arange(-n, n + 1) * math.pi / L] * kernel.dim,
                       indexing="ij")
    k_vec = np.stack([a.ravel() for a in axes], axis=1)
    k = np.linalg.norm(k_vec, axis=1)
    terms = (phi.fourier_profile(k) * psi.fourier_profile(k)
             * np.cos(k_vec @ (psi.center - phi.center)))
    return np.array([np.sum(terms * np.exp(-v * k**kernel.alpha)) for v in u]
                    ) / (2.0 * L) ** kernel.dim


def test_torus_series_matches_box_sum_off_centre_d3():
    """alpha = 1.5, d = 3, an indicator off the bump's centre on every axis:
    the table equals a brute-force sum over the lattice box |n_i| <= 40,
    where exp(-u k^alpha) at the box's faces is below 1e-23."""
    kernel = StableKernel(alpha=1.5, dim=3)
    L = 3.0
    phi = TestFunction(shape="bump", center=np.array([0.3, -0.2, 0.4]), radius=1.0)
    psi = TestFunction(shape="indicator", center=np.array([-0.5, 0.6, -0.3]),
                       radius=0.8)
    lags = np.array([0.2, 1.0, 5.0])
    got = pair_correlation(kernel, phi, psi, lags, torus_half_side=L)
    ref = _torus_box_sum(kernel, phi, psi, lags, L, 40)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_torus_long_lag_limit_d3():
    """Mass spreads evenly over the torus: G(u) -> <phi,1><psi,1>/(2L)^d."""
    kernel = StableKernel(alpha=2.0, dim=3)
    L = 5.66
    phi = bump(3)
    limit = lebesgue_integral(phi) ** 2 / (2.0 * L) ** 3
    got = pair_correlation(kernel, phi, phi, 400.0, torus_half_side=L)
    assert got == pytest.approx(limit, rel=1e-9)


def test_torus_zero_lag_is_the_series_limit():
    """At u = 0 the torus G is the overlap integral Int phi psi, the limit
    of the lattice series as u -> 0 (G moves by O(u) here)."""
    kernel = StableKernel(alpha=2.0, dim=1)
    phi, psi = bump(1, center=0.5), bump(1, center=-0.5)
    at_zero = pair_correlation(kernel, phi, psi, 0.0, torus_half_side=2.0)
    near_zero = pair_correlation(kernel, phi, psi, 1e-7, torus_half_side=2.0)
    assert at_zero > 0.0
    assert near_zero == pytest.approx(at_zero, rel=1e-5)


def test_torus_refuses_supports_outside_the_window():
    kernel = StableKernel(alpha=2.0, dim=2)
    inside, spilling = bump(2), bump(2, center=1.5)
    assert pair_correlation(kernel, inside, inside, 1.0, torus_half_side=2.0) > 0
    for phi, psi in ((inside, spilling), (spilling, inside)):
        with pytest.raises(ValueError, match="half_side"):
            pair_correlation(kernel, phi, psi, 1.0, torus_half_side=2.0)
        with pytest.raises(ValueError, match="half_side"):
            pair_correlation(kernel, phi, psi, 0.0, torus_half_side=2.0)


@pytest.mark.parametrize("half_side", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("formula", ["pair_correlation", "field_covariance",
                                     "occupation_variance"])
def test_moment_formulas_refuse_a_non_finite_torus_window(formula, half_side):
    """NaN and +inf passed the support check and failed inside the torus
    table with numpy's "negative dimensions are not allowed"; -inf was
    reported as a support leaving the window."""
    kernel, phi = StableKernel(alpha=2.0, dim=1), bump(1)
    table = build_renewal(EXP1, 2.0, 0.05)
    call = {
        "pair_correlation": lambda: pair_correlation(
            kernel, phi, phi, 1.0, torus_half_side=half_side),
        "field_covariance": lambda: field_covariance(
            kernel, table, 0.5, 1.0, phi, phi, torus_half_side=half_side),
        "occupation_variance": lambda: occupation_variance(
            kernel, table, phi, 1.0, grid_points=5, torus_half_side=half_side),
    }[formula]
    with pytest.raises(ValueError, match="half_side must be positive and finite"):
        call()


def test_torus_series_cut_too_early_raises(monkeypatch):
    """The outermost lattice shell is checked, in d = 1 and d = 3: a cut
    where exp(-u k^alpha) is still 0.1 leaves too much out.  The torus
    cut is `_density_k_max`, which reads stable_motion's constant."""
    cases = [(StableKernel(alpha=2.0, dim=d), bump(d), half_side)
             for d, half_side in ((1, 20.0), (3, 6.0))]
    for kernel, phi, half_side in cases:
        pair_correlation(kernel, phi, phi, 0.5, torus_half_side=half_side)
    monkeypatch.setattr(stable_motion, "_LOG_TRUNC", math.log(10.0))
    for kernel, phi, half_side in cases:
        with pytest.raises(QuadratureError, match="at lag u=0.5:"):
            pair_correlation(kernel, phi, phi, 0.5, torus_half_side=half_side)


def test_torus_series_refuses_oversized_lattice_before_allocating():
    """A tiny lag needs |n| up to ~22,000 in d = 2, a 4.8e8-entry table:
    refused at once, naming the lag, instead of exhausting memory."""
    kernel = StableKernel(alpha=1.0, dim=2)
    with pytest.raises(QuadratureError, match="u=0.001"):
        pair_correlation(kernel, bump(2), bump(2), 1e-3, torus_half_side=2.0)


# ---------------------------------------------------------------------------
# pair correlation tables: one node set or lattice table for many lags
# ---------------------------------------------------------------------------

# unsorted, with repeats and zeros
TABLE_LAGS = np.array([3.0, 0.0, 0.5, 400.0, 0.5, 17.25, 0.0, 1.0, 123.5, 2.0])


@pytest.mark.parametrize("alpha,dim,offset,half_side", [
    (1.5, 1, 0.0, None),
    (2.0, 3, 0.0, None),
    (1.5, 2, 0.7, None),
    (2.0, 1, 0.0, 6.0),
    (1.0, 2, 0.7, 2.5),
    (2.0, 3, 0.0, 5.66),
])
def test_pair_correlation_table_matches_scalar_calls(alpha, dim, offset, half_side):
    """An array of lags shares one graded node set (free space) or one
    lattice table (torus) sized by its smallest lag; each lag's value is
    its own one-lag call's to 1e-12 of max |G|."""
    kernel = StableKernel(alpha=alpha, dim=dim)
    phi, psi = bump(dim), bump(dim, center=offset)
    table = pair_correlation(kernel, phi, psi, TABLE_LAGS, torus_half_side=half_side)
    one = np.array([pair_correlation(kernel, phi, psi, u, torus_half_side=half_side)
                    for u in TABLE_LAGS])
    assert table.shape == TABLE_LAGS.shape
    assert isinstance(one[0], float)
    assert np.max(np.abs(table - one)) < 1e-12 * np.max(np.abs(one))


def test_pair_correlation_table_rejects_bad_lags():
    kernel = StableKernel(alpha=2.0, dim=1)
    with pytest.raises(ValueError, match="nonnegative"):
        pair_correlation(kernel, bump(1), bump(1), np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="1-D"):
        pair_correlation(kernel, bump(1), bump(1), np.ones((2, 2)))


@pytest.mark.parametrize("half_side", [None, 3.0], ids=["free", "torus"])
def test_pair_correlation_refuses_non_finite_lags(monkeypatch, half_side):
    """NaN used to give G(0), and inf a ZeroDivisionError (free space) or
    nan (torus); both are refused before any table is built."""
    def no_table(*args):
        raise AssertionError("a table was built for a non-finite lag")

    monkeypatch.setattr(moments, "_free_table", no_table)
    monkeypatch.setattr(moments, "_torus_table", no_table)
    kernel = StableKernel(alpha=1.5, dim=1)
    for bad in (math.nan, math.inf, [1.0, math.nan], [math.inf, 0.5]):
        with pytest.raises(ValueError, match="finite"):
            pair_correlation(kernel, bump(1), bump(1), bad, torus_half_side=half_side)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            pair_correlation_realspace(kernel, bump(1), bump(1), bad)


def test_pair_correlation_refuses_another_dim(monkeypatch, exp_table):
    """A phi or psi of another dim than the kernel used to give a number
    (0.0722 at lag 0.5, 0.464 at lag 0, for d = 1 bumps under a d = 3
    kernel); it is refused before any table is built, and so is it by the
    covariance and the occupation variance."""
    def no_table(*args):
        raise AssertionError("a table was built for a mismatched dim")

    for name in ("_free_table", "_torus_table", "_overlap_integral"):
        monkeypatch.setattr(moments, name, no_table)
    kernel = StableKernel(alpha=1.5, dim=3)
    for phi, psi in ((bump(1), bump(1)), (bump(3), bump(1)), (bump(1), bump(3))):
        for u in (0.0, 0.5, [0.0, 0.5]):
            with pytest.raises(ValueError, match="dim"):
                pair_correlation(kernel, phi, psi, u)
        with pytest.raises(ValueError, match="dim"):
            pair_correlation(kernel, phi, psi, 0.5, torus_half_side=5.0)
    with pytest.raises(ValueError, match="dim"):
        field_covariance(kernel, exp_table, 1.0, 2.0, bump(1), bump(1))
    with pytest.raises(ValueError, match="dim"):
        occupation_variance(kernel, exp_table, bump(1), 2.0, grid_points=5)


def _sqrt_substituted_g_1d(phi, alpha, u, panels=2000):
    """G(u) for phi = psi at one centre in d = 1 as (1/pi) Int 2 v
    phi^(v^2)^2 exp(-u v^(2 alpha)) dv, k = v^2: smooth at v = 0, so
    uniform Gauss-Legendre panels reach rounding level."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, (math.log(1e18) / u) ** (0.5 / alpha), panels + 1)
    half, mid = np.diff(edges) / 2.0, (edges[1:] + edges[:-1]) / 2.0
    v = (mid[:, None] + half[:, None] * x).ravel()
    wv = (half[:, None] * w).ravel()
    f = phi.fourier_profile(v * v) ** 2 * 2.0 * v * np.exp(-u * v ** (2 * alpha))
    return float(wv @ f) / math.pi


def test_pair_correlation_table_matches_fine_reference():
    """alpha = 1.5, d = 1 on the bench variance's lag step 0.5: the graded
    node set resolves the k^alpha kink for every lag up to 400 (uniform
    panels from k = 0, one set per lag, were 1.2e-8 of max |G| off)."""
    kernel = StableKernel(alpha=1.5, dim=1)
    phi = bump(1)
    lags = np.arange(1, 801) * 0.5
    got = pair_correlation(kernel, phi, phi, lags)
    picks = np.array([0, 1, 3, 9, 39, 99, 199, 399, 599, 799])
    ref = np.array([_sqrt_substituted_g_1d(phi, 1.5, u) for u in lags[picks]])
    assert np.max(np.abs(got[picks] - ref)) < 1e-10 * np.max(np.abs(ref))


def test_free_space_cut_too_early_raises_naming_the_lag(monkeypatch):
    """Each lag checks the last 24th of its own cut; a cut where
    exp(-u k^alpha) is still 0.1 leaves too much there.  The free-space
    cut is `_density_k_max`, which reads stable_motion's constant."""
    kernel = StableKernel(alpha=2.0, dim=1)
    lags = np.array([0.5, 2.0, 8.0, 32.0])
    pair_correlation(kernel, bump(1), bump(1), lags)
    monkeypatch.setattr(stable_motion, "_LOG_TRUNC", math.log(10.0))
    with pytest.raises(QuadratureError, match=r"at lag u=(0\.5|2|8|32):"):
        pair_correlation(kernel, bump(1), bump(1), lags)
    with pytest.raises(QuadratureError, match="at lag u=8:"):
        pair_correlation(kernel, bump(1), bump(1), 8.0)


def test_torus_table_refuses_oversized_lattice_before_allocating():
    """The lattice is sized by the smallest lag, so a table holding a tiny
    lag is refused naming it, with nothing large allocated first."""
    kernel = StableKernel(alpha=1.0, dim=2)
    lags = np.array([1.0, 1e-3, 0.5])
    with traced_peak() as traced, pytest.raises(QuadratureError, match="u=0.001"):
        pair_correlation(kernel, bump(2), bump(2), lags, torus_half_side=2.0)
    assert traced.peak < 1 << 20


def test_free_space_table_refuses_oversized_node_set():
    """alpha = 0.5 at u = 1e-3 cuts near k = 1e9: hundreds of millions of
    nodes, refused naming the lag instead of allocated."""
    kernel = StableKernel(alpha=0.5, dim=1)
    with pytest.raises(QuadratureError, match="u=0.001"):
        pair_correlation(kernel, bump(1), bump(1), np.array([1e-3, 1.0]))


def test_wide_lag_range_sums_only_each_lags_prefix(monkeypatch):
    """alpha = 1, d = 1: u = 1e-3 alone needs ~352k nodes, so every lag
    summing the whole node set would be 7e7 entries.  Each lag sums only
    up to its own cut, and matches a table of that lag alone."""
    kernel = StableKernel(alpha=1.0, dim=1)
    phi = bump(1)
    lags = np.concatenate([[1e-3], np.arange(1.0, 201.0)])
    one = np.array([pair_correlation(kernel, phi, phi, u) for u in lags])
    prefixes = []
    real_sums = moments._lag_sums

    def spy(lags, x, coef, tail_coef, starts, ends):
        prefixes.append(int(np.sum(ends)))  # entries summed over all lags
        return real_sums(lags, x, coef, tail_coef, starts, ends)

    monkeypatch.setattr(moments, "_lag_sums", spy)
    table = pair_correlation(kernel, phi, phi, lags)
    assert np.max(np.abs(table - one)) < 1e-12 * np.max(np.abs(one))
    assert prefixes and prefixes[0] < 1_000_000


def test_wide_tables_leave_no_node_sets_behind():
    """Three wide alpha = 1 tables each build a ~350k-node set; once
    they return and are collected, none of it stays allocated."""
    kernel = StableKernel(alpha=1.0, dim=1)
    phi = bump(1)
    pair_correlation(kernel, phi, phi, np.array([1.0, 2.0]))  # first-call set-up
    with traced_peak() as traced:
        for low in (1e-3, 2e-3, 4e-3):
            pair_correlation(kernel, phi, phi,
                             np.concatenate([[low], np.arange(1.0, 201.0)]))
        gc.collect()
    assert traced.current < 1 << 20


def _per_lag_sums(lags, x, coef, tail_coef, starts, ends):
    """`_lag_sums` as one plain loop over lags: the test oracle."""
    out, tails = np.empty(len(lags)), np.empty(len(lags))
    for i, (u, start, end) in enumerate(zip(lags, starts, ends)):
        terms = np.exp(-u * x[:end])
        out[i] = terms @ coef[:end]
        tails[i] = terms[start:] @ tail_coef[start:end]
    return out, tails


def _lag_sums_inputs(monkeypatch, call):
    """The arguments of the one `_lag_sums` call that `call()` makes."""
    seen = []
    real = moments._lag_sums

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(moments, "_lag_sums", spy)
    call()
    monkeypatch.undo()
    (args,) = seen
    return args


def _assert_lag_sums_match_the_loop(args):
    got, want = moments._lag_sums(*args), _per_lag_sums(*args)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


@pytest.mark.parametrize("alpha,dim,lags", [
    (1.5, 1, np.arange(1, 801) * 0.5),  # the bench's T = 200, 401-point d = 1 table
    (2.0, 3, np.arange(1, 401) * 1.0),  # and its 201-point d = 3 table
], ids=["d1-800-lags", "d3-400-lags"])
def test_grouped_lag_sums_match_the_per_lag_loop(monkeypatch, alpha, dim, lags):
    """Lags that share a cut are summed together; G and every tail match
    the per-lag loop.  The 800 d = 1 lags share 14 cuts, and their sums
    hold under 1 MB on top of the node set at any time."""
    kernel = StableKernel(alpha=alpha, dim=dim)
    args = _lag_sums_inputs(monkeypatch, lambda: pair_correlation(
        kernel, bump(dim), bump(dim), lags))
    assert len(np.unique(args[-1])) < len(lags) // 10
    _assert_lag_sums_match_the_loop(args)
    with traced_peak() as traced:
        moments._lag_sums(*args)
    assert traced.peak < 1 << 20


def test_grouped_lag_sums_match_the_per_lag_loop_on_the_torus(monkeypatch):
    """The 130-lag torus table behind the covariance oracle: alpha = 2,
    d = 1, L = 6, the lags of Cov(<phi, X_1>, <phi, X_2>)."""
    kernel, table = StableKernel(alpha=2.0, dim=1), default_renewal_table(EXP1, 2.0)
    args = _lag_sums_inputs(monkeypatch, lambda: field_covariance(
        kernel, table, 1.0, 2.0, bump(1), bump(1), torus_half_side=6.0))
    _assert_lag_sums_match_the_loop(args)


def test_grouped_lag_sums_split_long_runs_into_blocks():
    """Runs of equal cuts longer than one block split into several, and a
    cut longer than a block is summed one lag at a time; each lag's tail
    still starts at its own start."""
    rng = np.random.default_rng(3)
    size = moments._LAG_BLOCK + 4000
    x = np.sort(rng.uniform(0.0, 30.0, size))
    coef, tail_coef = rng.normal(size=size), rng.uniform(size=size)
    ends = np.repeat([size, 3000, 2900, 17], [3, 200, 1, 40])
    starts = np.maximum(ends - rng.integers(1, 400, len(ends)), 0)
    lags = np.sort(rng.uniform(0.1, 5.0, len(ends)))
    assert 200 > moments._LAG_BLOCK // 3000  # the 3000-entry run needs blocks
    _assert_lag_sums_match_the_loop((lags, x, coef, tail_coef, starts, ends))


# ---------------------------------------------------------------------------
# field covariance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exp_table():
    return build_renewal(EXP1, 8.5, 0.005)


def test_field_covariance_validation(exp_table):
    kernel, phi = StableKernel(alpha=2.0, dim=1), bump(1)
    with pytest.raises(ValueError, match="0 <= s <= t"):
        field_covariance(kernel, exp_table, 2.0, 1.0, phi, phi)
    with pytest.raises(ValueError, match="horizon"):
        field_covariance(kernel, exp_table, 1.0, 100.0, phi, phi)


def test_covariance_at_s_zero_is_pair_correlation(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi, psi = bump(1), bump(1, center=0.4)
    assert field_covariance(kernel, exp_table, 0.0, 1.5, phi, psi) == pytest.approx(
        pair_correlation(kernel, phi, psi, 1.5), rel=1e-12)


def test_covariance_gram_matrix_is_psd(exp_table):
    kernel = StableKernel(alpha=1.5, dim=1)
    phi = bump(1)
    times = [0.5, 1.0, 2.0]
    n = len(times)
    mat = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            mat[i, j] = mat[j, i] = field_covariance(kernel, exp_table, times[i],
                                                     times[j], phi, phi)
    eig = np.linalg.eigvalsh(mat)
    assert mat == pytest.approx(mat.T)
    assert eig.min() >= -1e-6 * eig.max(), eig


def test_covariance_cauchy_schwarz(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    psi = indicator(1, center=0.5, radius=0.8)

    def cov(f, g, s, t):
        return field_covariance(kernel, exp_table, s, t, f, g)

    c = cov(phi, psi, 1.0, 2.0)
    v1 = cov(phi, phi, 1.0, 1.0)
    v2 = cov(psi, psi, 2.0, 2.0)
    assert abs(c) <= math.sqrt(v1 * v2) * (1.0 + 1e-6)


def test_covariance_swap_symmetry_at_equal_times(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    psi = indicator(1, center=0.3, radius=0.6)
    a = field_covariance(kernel, exp_table, 1.0, 1.0, phi, psi)
    b = field_covariance(kernel, exp_table, 1.0, 1.0, psi, phi)
    assert a == pytest.approx(b, rel=1e-6)


# ---------------------------------------------------------------------------
# single-tree second moment
# ---------------------------------------------------------------------------


def test_tree_second_moment_s_zero_exact(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    psi = bump(1, center=0.5)
    x0 = np.array([0.2])
    val = tree_second_moment(kernel, exp_table, x0, 0.0, 1.5, phi, psi)
    exact = float(phi.evaluate(x0[None, :])[0]) * float(
        semigroup_apply(kernel, psi, 1.5, x0))
    assert val == pytest.approx(exact, rel=1e-12)


def test_tree_second_moment_validation(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    with pytest.raises(ValueError):
        tree_second_moment(kernel, exp_table, [0.0], 2.0, 1.0, phi, phi)
    with pytest.raises(ValueError):
        tree_second_moment(kernel, exp_table, [0.0, 0.0], 1.0, 2.0, phi, phi)
    with pytest.raises(ValueError):
        tree_second_moment(kernel, exp_table, [0.0], 50.0, 60.0, phi, phi)


@pytest.mark.parametrize("knob,bad", [
    ("nodes_per_dim", 0), ("nodes_per_dim", 1), ("nodes_per_dim", 2),
    ("nodes_per_dim", 65.0), ("nodes_per_dim", 64), ("r_points", 0), ("r_points", 1),
    ("r_points", 5.0),
])
def test_tree_moment_grid_sizes_refused_before_any_inversion(exp_table, monkeypatch,
                                                             knob, bad):
    """A grid size that is not an odd integer >= 3 nodes or an integer >= 2
    r-points is refused by name; nodes_per_dim = 0 used to mean the
    default grid, 1 gave nan and 64 ran as 65."""
    def no_inversion(*args, **kwargs):
        raise AssertionError("inverted before refusing the grid")

    monkeypatch.setattr(stable_motion, "radial_fourier_inverse", no_inversion)
    kernel = StableKernel(alpha=1.5, dim=1)
    with pytest.raises(ValueError, match=knob):
        tree_second_moment(kernel, exp_table, [0.0], 1.0, 2.0, bump(1), bump(1),
                           **{knob: bad})
    if knob == "nodes_per_dim":
        with pytest.raises(ValueError, match=knob):
            pair_correlation_realspace(kernel, bump(1), bump(1), 1.0,
                                       nodes_per_dim=bad)


def test_tree_second_moment_swap_symmetry_at_equal_times(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    psi = bump(1, center=0.4, radius=0.8)
    a = tree_second_moment(kernel, exp_table, [0.1], 1.0, 1.0, phi, psi)
    b = tree_second_moment(kernel, exp_table, [0.1], 1.0, 1.0, psi, phi)
    assert a == pytest.approx(b, rel=1e-5)


def test_tree_second_moment_matches_monte_carlo(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1, radius=1.5)
    s, t = 1.0, 2.0
    analytic = tree_second_moment(kernel, exp_table, [0.0], s, t, phi, phi)
    res = tree_batch(kernel, EXP1, np.zeros((20000, 1)),
                     obs_times=np.array([0.0, s, t]), seed=41,
                     population_cap=10**6, weights={"phi": phi.evaluate})
    series = res.ok("phi")
    prods = series[:, 1] * series[:, 2]
    se = prods.std(ddof=1) / np.sqrt(len(prods))
    z = (prods.mean() - analytic) / se
    assert abs(z) <= 3.5, (prods.mean(), analytic, z)


@pytest.mark.parametrize("dim,seed", [(1, 47), (2, 48), (3, 49)],
                         ids=["d1", "d2", "d3"])
def test_tree_second_moment_heavy_tailed_motion_matches_monte_carlo(dim, seed):
    """alpha < 2: the 4 t**(1/alpha) cut of the outer integral must
    hold for heavy-tailed jumps too."""
    out = run_tree_moment_comparison(
        StableKernel(alpha=1.5, dim=dim), EXP1, np.zeros(dim), 1.0, 2.0,
        bump(dim), bump(dim), replicates=40000, seed=seed)
    assert out["passed"], out


@pytest.mark.parametrize("dim,x0,expected", [
    (2, 0.0, 0.011966952311003464),
    (2, 0.3, 0.01120741690870864),
    (3, 0.0, 0.0010130179649876113),
    (3, 0.3, 0.0009130176948406413),
])
def test_tree_second_moment_default_grid_values(dim, x0, expected):
    """alpha = 1.5, Exp(1), s = 1, t = 2 on the default grids: the values
    of the route that rebuilt every angular matrix per r-point, which
    the one-matrix-per-radius-set route must keep."""
    kernel = StableKernel(alpha=1.5, dim=dim)
    table = default_renewal_table(EXP1, 2.0)
    got = tree_second_moment(kernel, table, np.full(dim, x0), 1.0, 2.0,
                             bump(dim), bump(dim))
    assert got == pytest.approx(expected, rel=1e-8)


# ---------------------------------------------------------------------------
# occupation-time variance
# ---------------------------------------------------------------------------


def naive_occupation_variance(kernel, table, phi, horizon, grid_points,
                              torus_half_side=None):
    """Direct double-loop reimplementation of the variance quadrature."""
    m = grid_points - 1
    delta = horizon / m
    ts = np.arange(m + 1) * delta

    def g(u):
        return pair_correlation(kernel, phi, phi, u, torus_half_side=torus_half_side)

    def cov(s, t):
        out = g(abs(t - s))
        s0 = min(s, t)
        if s0 == 0.0:
            return out
        n = int(round(s0 / delta))
        rs = np.arange(n + 1) * delta
        uvals = table.value(rs)
        gvals = np.array([g(s0 + max(s, t) - 2.0 * r) for r in rs])
        return out + float(
            np.sum(0.5 * (gvals[1:] + gvals[:-1]) * np.diff(uvals)))

    mat = np.array([[cov(a, b) for b in ts] for a in ts])
    w = np.full(m + 1, delta)
    w[[0, -1]] = delta / 2.0
    return float(w @ mat @ w)


@pytest.mark.parametrize("pareto,half_side,grid_points", [
    (False, None, 9),
    (True, None, 9),  # a gamma = 0.5 tail: uneven renewal increments dU
    (False, 2.0, 9),
    (False, None, 17),
], ids=["exp1", "pareto", "torus", "m16"])
def test_occupation_variance_matches_naive_reimplementation(exp_table, pareto,
                                                            half_side, grid_points):
    """The lag-weight sum equals the double loop over the covariance matrix."""
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    table = default_renewal_table(make_pareto_tail(0.5), 2.0) if pareto else exp_table
    fast = occupation_variance(kernel, table, phi, 2.0, grid_points=grid_points,
                               torus_half_side=half_side)
    slow = naive_occupation_variance(kernel, table, phi, 2.0, grid_points,
                                     torus_half_side=half_side)
    assert fast == pytest.approx(slow, rel=1e-9)


def _per_interval_lag_weights(du, delta):
    """`moments._lag_weights` with one self-convolution of the trapezoid
    weights per renewal interval: the test oracle."""
    m = len(du)
    tw = np.full(m + 1, delta)
    tw[[0, -1]] = delta / 2.0
    weights = np.zeros(2 * m + 1)
    np.add.at(weights, np.abs(np.arange(-m, m + 1)), np.correlate(tw, tw, "full"))
    for l in range(m):
        mass = du[l] / 2.0 * np.convolve(tw[l + 1:], tw[l + 1:])
        weights[: len(mass)] += mass
        weights[2 : len(mass) + 2] += mass
    return weights


@pytest.mark.parametrize("m", [1, 2, 3, 16, 400])
@pytest.mark.parametrize("increments", ["pareto", "zero"])
def test_lag_weights_match_the_per_interval_loop(m, increments):
    """The closed-form weights equal the loop's, against the largest
    weight, for heavy-tailed (uneven) and all-zero renewal increments."""
    du = (np.random.default_rng(m).pareto(0.5, m) if increments == "pareto"
          else np.zeros(m))
    want = _per_interval_lag_weights(du, 0.37)
    got = moments._lag_weights(du, 0.37)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize("half_side", [None, 2.0], ids=["free", "torus"])
@pytest.mark.parametrize("m", [1, 2, 3, 16, 400])
def test_occupation_variance_is_the_loop_weights_times_g(half_side, m):
    """A gamma = 0.5 tail's renewal increments, free space and torus:
    the variance is the loop's weights against the G table."""
    kernel, phi = StableKernel(alpha=2.0, dim=1), bump(1)
    table = default_renewal_table(make_pareto_tail(0.5), 2.0)
    delta = 2.0 / m
    g = pair_correlation(kernel, phi, phi, np.arange(2 * m + 1) * delta,
                         torus_half_side=half_side)
    du = np.diff(table.value(np.arange(m + 1) * delta))
    want = float(_per_interval_lag_weights(du, delta) @ g)
    got = occupation_variance(kernel, table, phi, 2.0, grid_points=m + 1,
                              torus_half_side=half_side)
    assert got == pytest.approx(want, rel=1e-13)


def test_occupation_variance_monotone_in_horizon(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    vals = [occupation_variance(kernel, exp_table, phi, T, grid_points=33)
            for T in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a > 0.0 for a, b in zip(vals[:-1], vals[1:])), vals


def test_occupation_variance_grid_insensitivity(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    coarse = occupation_variance(kernel, exp_table, phi, 4.0, grid_points=17)
    fine = occupation_variance(kernel, exp_table, phi, 4.0, grid_points=33)
    assert coarse == pytest.approx(fine, rel=0.05)


def test_occupation_variance_edge_cases(exp_table):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    assert occupation_variance(kernel, exp_table, phi, 0.0, grid_points=9) == 0.0
    with pytest.raises(ValueError):
        occupation_variance(kernel, exp_table, phi, -1.0, grid_points=9)
    with pytest.raises(ValueError):
        occupation_variance(kernel, exp_table, phi, 100.0, grid_points=9)
    with pytest.raises(TypeError, match="grid_points"):
        occupation_variance(kernel, exp_table, phi, 2.0)
    for bad in (0, 1, 2.5, True, None):
        with pytest.raises(ValueError, match="grid_points"):
            occupation_variance(kernel, exp_table, phi, 2.0, grid_points=bad)
    assert occupation_variance(kernel, exp_table, phi, 2.0, grid_points=2) > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_occupation_variance_refuses_non_finite_horizon(exp_table, monkeypatch):
    """horizon = nan used to return nan; nan and inf raise before G is built."""
    def no_table(*args, **kwargs):
        raise AssertionError("G was tabulated for a non-finite horizon")

    monkeypatch.setattr(moments, "pair_correlation", no_table)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            occupation_variance(StableKernel(alpha=2.0, dim=1), exp_table, bump(1),
                                bad, grid_points=9)


def test_occupation_variance_torus_exceeds_free_space(exp_table):
    """Periodic wrapping adds image correlations, so on a small torus
    the occupation variance is strictly larger."""
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = bump(1)
    free = occupation_variance(kernel, exp_table, phi, 2.0, grid_points=17)
    torus = occupation_variance(kernel, exp_table, phi, 2.0, grid_points=17,
                                torus_half_side=2.0)
    assert torus > free


# ---------------------------------------------------------------------------
# variance decay exponents
# ---------------------------------------------------------------------------


def test_decay_exponent_heavy_tail_values():
    assert decay_exponent_prediction(1, 1.5, 0.5) == pytest.approx(-1.0 / 6.0)
    assert decay_exponent_prediction(2, 1.5, 0.5) == pytest.approx(-5.0 / 6.0)
    assert decay_exponent_prediction(2, 2.0, 0.7) == pytest.approx(-0.3)
    # deeper in the window the lifetime tail term still dominates
    assert decay_exponent_prediction(3, 2.0, 0.9) == pytest.approx(-0.6)


def test_decay_exponent_finite_mean_values():
    assert decay_exponent_prediction(3, 2.0) == pytest.approx(-0.5)
    assert decay_exponent_prediction(5, 2.0) == pytest.approx(-1.0)
    assert decay_exponent_prediction(2, 1.5) == pytest.approx(-1.0 / 3.0)


def test_decay_exponent_heavy_tail_gates():
    # boundary d = alpha*gamma refused from both sides of the interface
    with pytest.raises(RegimeError):
        decay_exponent_prediction(1, 2.0, 0.5)
    # local-extinction side d < alpha*gamma
    with pytest.raises(RegimeError):
        decay_exponent_prediction(1, 2.0, 0.9)
    # d >= 2*alpha is outside the window
    with pytest.raises(RegimeError):
        decay_exponent_prediction(3, 1.5, 0.5)
    with pytest.raises(RegimeError):
        decay_exponent_prediction(4, 2.0, 0.5)
    with pytest.raises(ValueError):
        decay_exponent_prediction(1, 1.5, 1.5)


def test_decay_exponent_finite_mean_gates():
    with pytest.raises(RegimeError):
        decay_exponent_prediction(2, 2.0)  # d = alpha boundary
    with pytest.raises(RegimeError):
        decay_exponent_prediction(1, 2.0)  # recurrent migration


def test_decay_exponent_infers_regime_from_gamma():
    # same (d, alpha): a tail exponent selects the heavy-tail formula
    assert decay_exponent_prediction(3, 2.0) == pytest.approx(-0.5)
    assert decay_exponent_prediction(3, 2.0, 0.5) == pytest.approx(-1.0)
