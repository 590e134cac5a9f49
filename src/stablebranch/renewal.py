"""Renewal function of a lifetime law.

U(r) = sum_k F^{*k}(r) counts the expected renewals through time r,
including the unit atom at r = 0 (so U(0) = 1).  It solves the
convolution identity U = 1 + F * U, which is discretised here on a
uniform grid with trapezoidal Stieltjes weights,

    U_n = 1 + sum_{j=1..n} (U_{n-j} + U_{n-j+1})/2 * (F_j - F_{j-1}).

With U_0 = 1 moved to the right this is a lower-triangular Toeplitz
system in U_1..U_N, a power-series division u = rhs / a whose
coefficients are U_1..U_N.  With E = sum_{j>=0} dF_{j+1} x^j,

    a = 1 - (1 + x) E/2:  a_0 = 1 - dF_1/2,  a_j = -(F_{j+1} - F_{j-1})/2,
    rhs = 1/(1 - x) + E/2 = 1/(1 - x) + (1 - a)/(1 + x),
    u = v/(1 - x) + (v - 1)/(1 + x),  v = 1/a:

one reciprocal, then a running sum of v and an alternating one of v - 1.
Newton's iteration (Kung 1974; Brent & Kung 1978) raises v from order k
to k2 <= 2k, as 1/a = v - x^k v h when a v = 1 + x^k h, through the
orders N, ceil(N/2), ... down to 1, so no step overshoots.  Its two
products are FFTs at the smallest 5-smooth width (2^a 3^b 5^c) >= k2,
where wrap-around reaches only coefficients below k, which are not
read.  O(N log N) in all.

The running sum of v is compensated.  For F nondecreasing from F_0 = 0,
a_0 >= 1/2, a_j <= 0 and sum_{j>=1} -a_j <= a_0, so 0 <= v_j <= v_0:
each term is at most the sum s before it, so each step's rounding error
is exactly v_j - (s_j - s_{j-1}) (Fast2Sum), and the running sum of
those errors restores s; a plain sum drifts ~1e-11 relative in 10^6
steps.  The alternating sum is left plain; the tests check it on rough
CDFs with atoms.

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
    """U on the grid of `cdf_vals`: the two running sums of v = 1/a above."""
    a = np.concatenate(([1.0 - (cdf_vals[1] - cdf_vals[0]) / 2.0],
                        (cdf_vals[:-2] - cdf_vals[2:]) / 2.0))
    orders = [len(a)]  # top down: n, then halved, rounding up, to 1
    while orders[-1] > 1:
        orders.append(-(-orders[-1] // 2))
    v = np.empty(len(a))
    v[0], k = 1.0 / a[0], 1
    for k2 in reversed(orders[:-1]):
        w = _fast_width(k2)
        v_hat = np.fft.rfft(v[:k], w)
        h = np.fft.irfft(np.fft.rfft(a[:k2], w) * v_hat, w)[k:k2]
        v[k:k2] = -np.fft.irfft(np.fft.rfft(h, w) * v_hat, w)[: k2 - k]
        k = k2
    u = np.ones(len(a) + 1)
    s = np.cumsum(v, out=u[1:])
    err = np.diff(s)
    np.subtract(v[1:], err, out=err)  # each step's exact rounding error (above)
    s[1:] += np.cumsum(err, out=err)
    v[0] -= 1.0  # (v - 1)/(1 + x): a running sum of the sign-flipped terms
    v[1::2] *= -1.0
    np.cumsum(v, out=v)
    v[1::2] *= -1.0
    s += v
    return u


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
