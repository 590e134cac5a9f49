"""Renewal function of a lifetime law.

U(r) = sum_k F^{*k}(r) counts the expected renewals through time r,
including the unit atom at r = 0 (so U(0) = 1).  It solves the
convolution identity U = 1 + F * U, which is discretised here on a
uniform grid with trapezoidal Stieltjes weights,

    U_n = 1 + sum_{j=1..n} (U_{n-j} + U_{n-j+1})/2 * (F_j - F_{j-1}).

With U_0 = 1 moved to the right this is a lower-triangular Toeplitz
system in U_1..U_N,

    (1 - dF_1/2) U_n - sum_{m=1..n-1} c_{n-m} U_m = 1 + dF_n/2,
    c_j = (dF_j + dF_{j+1})/2,

a power-series division: with a = (1 - dF_1/2) - sum_j c_j x^j and rhs
the series of right sides, the coefficients of u = rhs / a are U_1..U_N.
Newton's iteration for the reciprocal (Kung 1974; Brent & Kung 1978)
at most doubles the order of g = 1/a with two FFT products a step, up
to k = ceil(N/2) terms; the orders are chosen from the top down
(ceil(N/2), then halved and rounded up), so no step overshoots.  Then
u = g rhs to order k is one more product, and the remaining
coefficients of u are g times the residual rhs - a u, two more.  The
solve costs O(N log N); each FFT width is the smallest 5-smooth
integer (2^a 3^b 5^c) that holds the product's unwrapped coefficients.

Integrals against the renewal measure, taken by the moment formulas from
differences of tabulated values, exclude the atom at zero; that keeps
the second-moment formulas free of double counting at coincident times.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Most steps a table may take: 7x the 600,000-point solves timed in
# BENCH_26.json.
_MAX_STEPS = 1 << 22


@dataclass(frozen=True)
class RenewalTable:
    """Tabulated renewal function on a uniform grid starting at 0."""

    grid: np.ndarray
    values: np.ndarray
    error_estimate: float  # Richardson estimate at the horizon; nan if too short

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def value(self, r):
        """U(r) by linear interpolation; r may be an array.  A query
        outside [0, horizon], or NaN, raises ValueError: the one rule for
        what the moment formulas may ask of a table."""
        r = np.asarray(r, dtype=float)
        if not np.all((r >= 0.0) & (r <= self.horizon * (1.0 + 1e-12))):
            raise ValueError(f"query outside the tabulated range: the table's "
                             f"horizon is {self.horizon}")
        return np.interp(r, self.grid, self.values)


def _fast_width(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m: an FFT width numpy transforms fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of two reaching m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _solve_renewal(cdf_vals: np.ndarray) -> np.ndarray:
    """U on the grid of `cdf_vals`: the power series rhs / a above."""
    dF = np.diff(cdf_vals)
    n = len(dF)
    a = np.concatenate(([1.0 - dF[0] / 2.0], -(dF[:-1] + dF[1:]) / 2.0))
    rhs = 1.0 + dF / 2.0
    rfft, irfft = np.fft.rfft, np.fft.irfft
    orders = [-(-n // 2)]  # top down: ceil(n/2), then halved, rounding up, to 1
    while orders[-1] > 1:
        orders.append(-(-orders[-1] // 2))
    # g = 1/a to order k, raised to k2 <= 2k: if a g = 1 + x^k h, then
    # 1/a = g - x^k g h to order k2, and at width w >= k2 both products
    # wrap only onto coefficients below k, which are not read
    g = np.array([1.0 / a[0]])
    for k2 in reversed(orders[:-1]):
        k, w = len(g), _fast_width(k2)
        g_hat = rfft(g, w)
        h = irfft(rfft(a[:k2], w) * g_hat, w)[k:k2]
        g = np.concatenate((g, -irfft(rfft(h, w) * g_hat, w)[: k2 - k]))
    # u = g rhs to order k; its last n - k <= k coefficients are g times the
    # residual rhs - a u of the first k, and at width w >= n every product
    # again wraps only onto coefficients below k
    k, w = len(g), _fast_width(n)
    g_hat = rfft(g, w)
    u = irfft(rfft(rhs[:k], w) * g_hat, w)[:k]
    resid = rhs[k:] - irfft(rfft(a, w) * rfft(u, w), w)[k:n]
    return np.concatenate(([1.0], u, irfft(rfft(resid, w) * g_hat, w)[: n - k]))


def build_renewal(law, horizon: float, grid_step: float) -> RenewalTable:
    """Tabulate U on [0, horizon] with the given step.

    A coarse solve at twice the step supplies a Richardson error
    estimate (the scheme is second order); a warning fires if the
    estimated relative error at the horizon exceeds 1%.  More than
    `_MAX_STEPS` steps raise ValueError before anything is allocated.
    """
    for name, value in (("horizon", horizon), ("grid_step", grid_step)):
        if not 0.0 < value < np.inf:  # NaN fails this too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if grid_step >= horizon:
        raise ValueError("grid_step must be smaller than the horizon")
    if horizon / grid_step > _MAX_STEPS:
        raise ValueError(f"grid_step {grid_step} needs {horizon / grid_step:.4g} steps "
                         f"to horizon {horizon}, over the {_MAX_STEPS} limit")
    n_steps = int(np.ceil(horizon / grid_step))
    grid = np.linspace(0.0, n_steps * grid_step, n_steps + 1)
    cdf = np.asarray(law.cdf(grid))
    u = _solve_renewal(cdf)

    err = float("nan")
    coarse_n = n_steps // 2
    if coarse_n >= 2:  # the coarse grid is every other fine point
        u_coarse = _solve_renewal(cdf[: 2 * coarse_n + 1 : 2])
        err = abs(u[2 * coarse_n] - u_coarse[-1]) / 3.0
        rel = err / abs(u[2 * coarse_n])
        if rel > 0.01:
            warnings.warn(
                f"renewal discretisation error ~{rel:.2%} at the horizon; "
                f"shrink grid_step",
                stacklevel=2,
            )
    return RenewalTable(grid=grid, values=u, error_estimate=err)
