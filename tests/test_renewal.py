"""Renewal-function solver: exact laws, convergence order, conventions."""

import math

import numpy as np
import pytest
from conftest import traced_peak
from numpy.testing import assert_allclose

from stablebranch import (
    Exponential,
    Gamma,
    build_renewal,
    make_pareto_tail,
)
from stablebranch import renewal
from stablebranch.renewal import _fast_width, _solve_renewal


def _forward_substitution(cdf_vals):
    """Reference solve of the trapezoid scheme, one grid point at a time:
    U_n = 1 + sum_{j=1..n} (U_{n-j} + U_{n-j+1})/2 * (F_j - F_{j-1})."""
    n_steps = len(cdf_vals) - 1
    dF = np.diff(cdf_vals)
    # weight on U_{n-j}: pairs (dF_j + dF_{j+1})/2, except the oldest cell
    cw = np.empty(n_steps + 1)
    cw[0] = 0.0
    cw[1:n_steps] = (dF[:-1] + dF[1:]) / 2.0
    cw[n_steps] = dF[-1] / 2.0
    cwr = cw[::-1].copy()
    denom = 1.0 - dF[0] / 2.0
    u = np.empty(n_steps + 1)
    u[0] = 1.0
    for n in range(1, n_steps + 1):
        acc = np.dot(u[:n], cwr[n_steps - n : n_steps])
        if n < n_steps:
            # the oldest cell's weight on U_0 is dF_n/2, not the paired
            # (dF_n + dF_{n+1})/2 the fixed stencil assigns
            acc -= 0.5 * dF[n] * u[0]
        u[n] = (1.0 + acc) / denom
    return u


@pytest.mark.parametrize("law, step", [
    (Exponential(rate=1.0), 0.005),
    (Gamma(shape=2.0, rate=2.0), 0.02),
    (make_pareto_tail(0.5), 0.25),
], ids=["exp1", "gamma22", "pareto05"])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 6, 7, 97, 255, 256, 257, 513,
                                     600, 1000, 1024, 1025, 1250, 2048, 3001,
                                     4099, 10201])
def test_fast_solve_matches_forward_substitution(law, step, n_steps):
    """The power-series division solves the same trapezoid system: sizes at
    and just past powers of two, sizes whose Newton orders halve unevenly
    (97, 3001, 10201), and sizes whose FFT widths are not powers of two
    (600, 1250)."""
    cdf = np.asarray(law.cdf(np.arange(n_steps + 1) * step))
    assert_allclose(_solve_renewal(cdf), _forward_substitution(cdf), rtol=1e-12, atol=0)


def test_fast_width_is_the_least_5_smooth_integer_reaching_m():
    """Brute force over m <= 10^4: the smallest 2^a 3^b 5^c >= m."""

    def smooth(w):
        for p in (2, 3, 5):
            while w % p == 0:
                w //= p
        return w == 1

    widths = np.array([w for w in range(1, 10_241) if smooth(w)])  # 10,240 = 2^11 5
    ms = np.arange(1, 10_001)
    assert [_fast_width(int(m)) for m in ms] == widths[np.searchsorted(widths, ms)].tolist()


@pytest.mark.parametrize("law, horizon, step", [
    (Exponential(rate=1.0), 100.0, 0.005),
    (make_pareto_tail(0.5), 1e4, 0.25),
    (Gamma(shape=2.0, rate=2.0), 500.0, 0.02),
], ids=["exp1", "pareto05", "gamma22"])
def test_error_estimate_is_richardson_against_the_coarse_grid(law, horizon, step):
    """The coarse solve reads every other fine CDF value; the estimate is
    the one from a coarse grid of its own, |U_h(2c) - U_2h(c)| / 3."""
    table = build_renewal(law, horizon, step)
    c = (len(table.grid) - 1) // 2
    coarse = _solve_renewal(np.asarray(law.cdf(np.linspace(0.0, c * 2.0 * step, c + 1))))
    expected = abs(table.values[2 * c] - coarse[-1]) / 3.0
    assert table.error_estimate == pytest.approx(expected, rel=1e-12, abs=0)


def test_exponential_renewal_long_table():
    """A 2e5-point table, the size long-horizon variance checks need."""
    table = build_renewal(Exponential(rate=1.0), 200.0, 0.001)
    assert len(table.grid) == 200_001
    err = np.max(np.abs(table.values - (1.0 + table.grid)))
    assert err < 1e-3, err


def test_exponential_renewal_is_linear():
    """Exp(rate) has U(t) = 1 + rate * t exactly."""
    for rate in [1.0, 2.5]:
        table = build_renewal(Exponential(rate=rate), 10.0, 0.005)
        err = np.max(np.abs(table.values - (1.0 + rate * table.grid)))
        assert err < 1e-3, (rate, err)


def test_solver_is_second_order():
    """Halving the grid step cuts the error by about four."""
    law = Gamma(shape=2.0, rate=2.0)
    ref = build_renewal(law, 10.0, 0.00125)
    errs = []
    for h in [0.02, 0.01]:
        tab = build_renewal(law, 10.0, h)
        errs.append(abs(tab.values[-1] - ref.values[-1]))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0, ratio


def test_heavy_tail_growth_constant():
    """U(t) * t^-gamma * Gamma(1+gamma) -> 1 for the calibrated Pareto law."""
    gamma = 0.5
    table = build_renewal(make_pareto_tail(gamma), 2000.0, 0.25)
    ratio = table.value(2000.0) * 2000.0 ** (-gamma) * math.gamma(1 + gamma)
    assert 0.9 < ratio < 1.1


def test_elementary_renewal_theorem():
    """U(t)/t -> 1/mean: Gamma(2, 2) has mean 1."""
    table = build_renewal(Gamma(shape=2.0, rate=2.0), 200.0, 0.02)
    assert abs(table.values[-1] / table.horizon - 1.0) < 0.02


def test_table_interpolation_and_range():
    table = build_renewal(Exponential(rate=1.0), 5.0, 0.01)
    assert table.value(0.0) == 1.0
    assert_allclose(table.value(table.grid[7]), table.values[7], rtol=1e-14)
    mid = table.value(0.015)
    assert table.values[1] < mid < table.values[2]
    with pytest.raises(ValueError):
        table.value(-0.1)
    with pytest.raises(ValueError):
        table.value(5.5)
    assert table.horizon == pytest.approx(5.0)


def test_table_refuses_non_finite_queries():
    """U(nan) used to pass the range check and interpolate to nan."""
    table = build_renewal(Exponential(rate=1.0), 5.0, 0.01)
    for bad in (math.nan, math.inf, -math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError, match="tabulated range"):
            table.value(bad)


def test_coarse_grid_warns():
    with pytest.warns(UserWarning, match="discretisation error"):
        build_renewal(Exponential(rate=2.0), 1.0, 0.25)


def test_build_renewal_validation():
    law = Exponential(rate=1.0)
    with pytest.raises(ValueError):
        build_renewal(law, -1.0, 0.1)
    with pytest.raises(ValueError):
        build_renewal(law, 1.0, 2.0)


def test_build_renewal_refuses_too_many_steps_before_allocating():
    """horizon 1000 at step 1e-9 is 10^12 steps: refused naming grid_step,
    as is a ratio that overflows to inf, with nothing large allocated."""
    law = Exponential(rate=1.0)
    with traced_peak() as traced:
        for horizon, step in ((1000.0, 1e-9), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="grid_step"):
                build_renewal(law, horizon, step)
    assert traced.peak < 1 << 16


def test_build_renewal_step_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(renewal, "_MAX_STEPS", 100)
    law = Exponential(rate=1.0)
    assert len(build_renewal(law, 10.0, 0.1).grid) == 101
    with pytest.raises(ValueError, match="over the 100 limit"):
        build_renewal(law, 10.0, 0.099)
