"""Renewal-function solver: exact laws, convergence order, conventions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stablebranch import (
    Exponential,
    Gamma,
    build_renewal,
    make_pareto_tail,
)
from stablebranch.renewal import elementary_renewal_check


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
    ratio, target, rel = elementary_renewal_check(Gamma(shape=2.0, rate=2.0),
                                                  200.0, grid_step=0.02)
    assert target == 1.0
    assert rel < 0.02
    with pytest.raises(ValueError):
        elementary_renewal_check(make_pareto_tail(0.5), 100.0)


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


def test_coarse_grid_warns():
    with pytest.warns(UserWarning, match="discretisation error"):
        build_renewal(Exponential(rate=2.0), 1.0, 0.25)


def test_build_renewal_validation():
    law = Exponential(rate=1.0)
    with pytest.raises(ValueError):
        build_renewal(law, -1.0, 0.1)
    with pytest.raises(ValueError):
        build_renewal(law, 1.0, 2.0)
