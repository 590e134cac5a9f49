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

solved by divide and conquer (Hairer, Lubich & Schlichte 1985): solve
the earlier half, add its convolution with c to the later half's right
side by one FFT, then solve the later half.  Unrolled, this walks leaves
of 256 points in order, and each completed aligned block of 2^k leaves
passes its convolution on to the next block of the same size.  The
leaves all share one lower-triangular Toeplitz matrix, whose inverse is
again lower-triangular Toeplitz, so each leaf is one matrix-vector
product.  The whole solve costs O(N log^2 N).

Integrals against the renewal measure, taken by the moment formulas from
differences of tabulated values, exclude the atom at zero; that keeps
the second-moment formulas free of double counting at coincident times.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


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
        """U(r) by linear interpolation; r may be an array."""
        r = np.asarray(r, dtype=float)
        if not np.all((r >= 0.0) & (r <= self.horizon * (1.0 + 1e-12))):
            raise ValueError("query outside the tabulated range")
        return np.interp(r, self.grid, self.values)


_LEAF = 256  # largest block solved directly by the shared inverse


def _solve_renewal(cdf_vals: np.ndarray) -> np.ndarray:
    """U on the grid of `cdf_vals` from the Toeplitz system above."""
    dF = np.diff(cdf_vals)
    n = len(dF)
    c = np.zeros(n)
    c[1:] = (dF[:-1] + dF[1:]) / 2.0
    denom = 1.0 - dF[0] / 2.0
    rhs = 1.0 + dF / 2.0
    # first column of the leaf inverse: the power series 1/(denom - sum c_j x^j)
    # to order `leaf`, by Newton steps that double the order
    leaf = min(_LEAF, n)
    a = -c[:leaf]
    a[0] = denom
    g = np.array([1.0 / denom])
    while len(g) < leaf:
        m = min(2 * len(g), leaf)
        e = -np.convolve(a[:m], g)[:m]
        e[0] += 2.0
        g = np.convolve(g, e)[:m]
    # row i of the lower-triangular Toeplitz inverse is g[i], ..., g[0], 0, ...
    padded = np.concatenate((g[::-1], np.zeros(leaf - 1)))
    inv = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(padded, leaf)[::-1])
    c_hat = {}  # rfft of c per transform width
    u = np.empty(n)
    for start in range(0, n, leaf):
        stop = min(start + leaf, n)
        u[start:stop] = inv[: stop - start, : stop - start] @ rhs[start:stop]
        if stop == n:
            break
        # the largest aligned block ending here (leaf times the lowest set
        # bit of the leaf count) passes its convolution with c on to the
        # next block of the same size; a circular width of twice the block
        # does not wrap onto those outputs
        blocks = stop // leaf
        half = leaf * (blocks & -blocks)
        width = 2 * half
        if width not in c_hat:
            c_hat[width] = np.fft.rfft(c[:width], width)
        conv = np.fft.irfft(np.fft.rfft(u[stop - half : stop], width) * c_hat[width], width)
        nxt = min(stop + half, n)
        rhs[stop:nxt] += conv[half : half + nxt - stop]
    return np.concatenate(([1.0], u))


def build_renewal(law, horizon: float, grid_step: float) -> RenewalTable:
    """Tabulate U on [0, horizon] with the given step.

    A coarse solve at twice the step supplies a Richardson error
    estimate (the scheme is second order); a warning fires if the
    estimated relative error at the horizon exceeds 1%.
    """
    if horizon <= 0.0 or grid_step <= 0.0:
        raise ValueError("horizon and grid_step must be positive")
    if grid_step >= horizon:
        raise ValueError("grid_step must be smaller than the horizon")
    n_steps = int(np.ceil(horizon / grid_step))
    grid = np.linspace(0.0, n_steps * grid_step, n_steps + 1)
    u = _solve_renewal(np.asarray(law.cdf(grid)))

    err = float("nan")
    coarse_n = n_steps // 2
    if coarse_n >= 2:
        coarse_grid = np.linspace(0.0, coarse_n * 2.0 * grid_step, coarse_n + 1)
        u_coarse = _solve_renewal(np.asarray(law.cdf(coarse_grid)))
        err = abs(u[2 * coarse_n] - u_coarse[-1]) / 3.0
        rel = err / abs(u[2 * coarse_n])
        if rel > 0.01:
            warnings.warn(
                f"renewal discretisation error ~{rel:.2%} at the horizon; "
                f"shrink grid_step",
                stacklevel=2,
            )
    return RenewalTable(grid=grid, values=u, error_estimate=err)


def elementary_renewal_check(law, horizon: float, grid_step: float | None = None):
    """Compare U(horizon)/horizon with 1/mean for a finite-mean law.

    Returns (ratio, inverse_mean, relative_gap).
    """
    mu = law.mean()
    if not np.isfinite(mu):
        raise ValueError("the elementary renewal theorem needs a finite mean")
    if grid_step is None:
        grid_step = min(0.05, horizon / 2000.0)
    table = build_renewal(law, horizon, grid_step)
    ratio = table.values[-1] / table.horizon
    target = 1.0 / mu
    return ratio, target, abs(ratio - target) / target
